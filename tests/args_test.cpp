// Tests for the command-line argument parser behind tools/socbench.
#include <gtest/gtest.h>

#include "common/args.h"
#include "common/error.h"

namespace soc {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.add_flag("--nodes", "cluster size", "8");
  p.add_flag("--nic", "nic kind", "10g");
  p.add_flag("--scale", "problem scale", "1.0");
  p.add_bool("--verbose", "more output");
  return p;
}

void parse(ArgParser& p, std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  p.parse(static_cast<int>(full.size()), full.data());
}

TEST(Args, DefaultsApply) {
  ArgParser p = make_parser();
  parse(p, {});
  EXPECT_EQ(p.get("--nic"), "10g");
  EXPECT_EQ(p.get_int("--nodes"), 8);
  EXPECT_FALSE(p.get_bool("--verbose"));
  EXPECT_FALSE(p.given("--nodes"));
}

TEST(Args, SpaceSeparatedValues) {
  ArgParser p = make_parser();
  parse(p, {"--nodes", "16", "--nic", "1g"});
  EXPECT_EQ(p.get_int("--nodes"), 16);
  EXPECT_EQ(p.get("--nic"), "1g");
  EXPECT_TRUE(p.given("--nodes"));
}

TEST(Args, EqualsSeparatedValues) {
  ArgParser p = make_parser();
  parse(p, {"--scale=0.25", "--verbose"});
  EXPECT_DOUBLE_EQ(p.get_double("--scale"), 0.25);
  EXPECT_TRUE(p.get_bool("--verbose"));
}

TEST(Args, PositionalArguments) {
  ArgParser p = make_parser();
  parse(p, {"run", "--nodes", "4", "extra"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "run");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(Args, UnknownFlagThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--bogus", "1"}), Error);
}

TEST(Args, MissingValueThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--nodes"}), Error);
}

TEST(Args, NonNumericValueThrows) {
  ArgParser p = make_parser();
  parse(p, {"--nodes", "lots"});
  EXPECT_THROW(p.get_int("--nodes"), Error);
}

TEST(Args, UndeclaredFlagAccessThrows) {
  ArgParser p = make_parser();
  parse(p, {});
  EXPECT_THROW(p.get("--missing"), Error);
}

TEST(Args, DuplicateDeclarationThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(p.add_flag("--nodes", "again"), Error);
}

TEST(Args, UsageMentionsEveryFlag) {
  const ArgParser p = make_parser();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--nodes"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
  EXPECT_NE(u.find("default: 8"), std::string::npos);
}

// Command-line mistakes are UsageErrors (the tools' exit-2 path), and a
// number must parse whole: "8x" is not 8.
TEST(Args, MistakesAreUsageErrors) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--bogus"}), UsageError);
  EXPECT_THROW(parse(p, {"--nodes"}), UsageError);
  EXPECT_THROW(parse(p, {"--verbose=maybe"}), UsageError);
  parse(p, {"--nodes", "8x"});
  EXPECT_THROW(p.get_int("--nodes"), UsageError);
  EXPECT_THROW(p.get_double("--nodes"), UsageError);
  EXPECT_THROW(parse_int_list("2,4x"), UsageError);
  EXPECT_THROW(parse_double_list("0.5,fast"), UsageError);
  EXPECT_THROW(parse_string_list("hpl,,cg"), UsageError);
}

TEST(Args, IntListParsing) {
  const auto v = parse_int_list("2,4,8,16");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 16);
  EXPECT_THROW(parse_int_list("2,x"), Error);
  EXPECT_THROW(parse_int_list(""), Error);
}

}  // namespace
}  // namespace soc
