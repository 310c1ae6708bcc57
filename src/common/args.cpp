#include "common/args.h"

#include <sstream>

namespace soc {

namespace {

// Whole-string numeric parses: "8x" or "" is a mistake, not 8 or 0.
bool parse_int(const std::string& text, int* out) {
  try {
    std::size_t used = 0;
    *out = std::stoi(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double(const std::string& text, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  SOC_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{help, default_value, false, false};
  order_.push_back(name);
}

void ArgParser::add_bool(const std::string& name, const std::string& help) {
  SOC_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{help, "false", true, false};
  order_.push_back(name);
}

void ArgParser::parse(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) throw UsageError("unknown flag: " + name);
    Flag& flag = it->second;
    flag.given = true;
    if (flag.is_bool) {
      if (inline_value.has_value() && *inline_value != "true" &&
          *inline_value != "false") {
        throw UsageError("boolean flag " + name + " takes no value");
      }
      flag.value = inline_value.value_or("true");
    } else if (inline_value.has_value()) {
      flag.value = *inline_value;
    } else {
      if (i + 1 >= argc) throw UsageError("flag " + name + " needs a value");
      flag.value = argv[++i];
    }
  }
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  SOC_CHECK(it != flags_.end(), "undeclared flag: " + name);
  return it->second.value;
}

int ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  int out = 0;
  if (!parse_int(v, &out)) {
    throw UsageError("flag " + name + " expects an integer, got '" + v + "'");
  }
  return out;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  double out = 0.0;
  if (!parse_double(v, &out)) {
    throw UsageError("flag " + name + " expects a number, got '" + v + "'");
  }
  return out;
}

bool ArgParser::get_bool(const std::string& name) const {
  return get(name) == "true";
}

bool ArgParser::given(const std::string& name) const {
  const auto it = flags_.find(name);
  SOC_CHECK(it != flags_.end(), "undeclared flag: " + name);
  return it->second.given;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  " << name;
    if (!flag.is_bool) os << " <value>";
    os << "\n      " << flag.help;
    if (!flag.is_bool && !flag.value.empty()) {
      os << " (default: " << flag.value << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    int v = 0;
    if (!parse_int(item, &v)) {
      throw UsageError("bad integer in list: '" + item + "'");
    }
    out.push_back(v);
  }
  if (out.empty()) throw UsageError("empty integer list");
  return out;
}

std::vector<std::string> parse_string_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) throw UsageError("empty entry in list: '" + csv + "'");
    out.push_back(item);
  }
  if (out.empty()) throw UsageError("empty string list");
  return out;
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    double v = 0.0;
    if (!parse_double(item, &v)) {
      throw UsageError("bad number in list: '" + item + "'");
    }
    out.push_back(v);
  }
  if (out.empty()) throw UsageError("empty number list");
  return out;
}

unsigned parse_thread_count(const std::string& text, const std::string& what) {
  int v = 0;
  if (!parse_int(text, &v) || v < 0) {
    throw UsageError(what + " must be a whole number >= 0, got '" + text +
                     "'");
  }
  return static_cast<unsigned>(v);
}

}  // namespace soc
