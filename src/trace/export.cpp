#include "trace/export.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace soc::trace {

namespace {

const char* mem_model_token(sim::MemModel mm) {
  switch (mm) {
    case sim::MemModel::kHostDevice: return "hd";
    case sim::MemModel::kZeroCopy: return "zc";
    case sim::MemModel::kUnified: return "um";
  }
  return "hd";
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw UsageError("soctrace line " + std::to_string(line) + ": " + what);
}

sim::MemModel parse_mem_model(const std::string& token, int line) {
  if (token == "hd") return sim::MemModel::kHostDevice;
  if (token == "zc") return sim::MemModel::kZeroCopy;
  if (token == "um") return sim::MemModel::kUnified;
  fail(line, "unknown memory model '" + token + "'");
}

// The engine's protocol event keys carry 15-bit rank ids.
constexpr long long kMaxRanks = 1 << 15;

std::size_t parse_ranks(const std::string& text, int line) {
  long long ranks = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, ranks);
  if (ec != std::errc() || ptr != end || ranks < 1 || ranks >= kMaxRanks) {
    fail(line, "ranks=" + text + " is not a rank count in [1, " +
                   std::to_string(kMaxRanks) + ")");
  }
  return static_cast<std::size_t>(ranks);
}

}  // namespace

std::string export_programs(const std::vector<sim::Program>& programs) {
  std::ostringstream os;
  os.precision(17);  // doubles must survive the round trip exactly
  os << "soctrace v1 ranks=" << programs.size() << "\n";
  for (std::size_t r = 0; r < programs.size(); ++r) {
    os << "rank " << r << "\n";
    for (const sim::Op& op : programs[r]) {
      SOC_CHECK(op.time_scale == 1.0,
                "soctrace v1 cannot carry Op::time_scale != 1");
      switch (op.kind) {
        case sim::OpKind::kCpuCompute:
          os << "cpu " << op.instructions << " " << op.flops << " "
             << op.dram_bytes << " " << op.profile << " " << op.phase << "\n";
          break;
        case sim::OpKind::kGpuKernel:
          os << "gpu " << op.flops << " " << op.dram_bytes << " "
             << mem_model_token(op.mem_model) << " " << op.parallelism << " "
             << (op.double_precision ? 1 : 0) << " " << op.phase << "\n";
          break;
        case sim::OpKind::kCopyH2D:
          os << "h2d " << op.bytes << " " << mem_model_token(op.mem_model)
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kCopyD2H:
          os << "d2h " << op.bytes << " " << mem_model_token(op.mem_model)
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kSend:
          os << "send " << op.peer << " " << op.bytes << " " << op.tag << " "
             << op.phase << "\n";
          break;
        case sim::OpKind::kRecv:
          os << "recv " << op.peer << " " << op.bytes << " " << op.tag << " "
             << op.phase << "\n";
          break;
        case sim::OpKind::kIsend:
          os << "isend " << op.peer << " " << op.bytes << " " << op.tag
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kIrecv:
          os << "irecv " << op.peer << " " << op.bytes << " " << op.tag
             << " " << op.phase << "\n";
          break;
        case sim::OpKind::kWaitAll:
          os << "waitall " << op.phase << "\n";
          break;
        case sim::OpKind::kPhase:
          os << "phase " << op.phase << "\n";
          break;
        case sim::OpKind::kDelay:
          os << "delay " << op.delay_seconds << " " << op.phase << "\n";
          break;
      }
    }
  }
  return os.str();
}

std::vector<sim::Program> import_programs(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;

  // Header.
  std::size_t ranks = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream hs(line);
    std::string magic;
    std::string version;
    std::string ranks_field;
    hs >> magic >> version >> ranks_field;
    if (magic != "soctrace" || version != "v1" ||
        ranks_field.rfind("ranks=", 0) != 0) {
      fail(line_no, "bad header (expected 'soctrace v1 ranks=N')");
    }
    ranks = parse_ranks(ranks_field.substr(6), line_no);
    break;
  }
  if (ranks == 0) {
    fail(line_no + 1, "missing header (expected 'soctrace v1 ranks=N')");
  }

  std::vector<sim::Program> programs(ranks);
  std::size_t current = ranks;  // invalid until a 'rank' directive
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;

    if (verb == "rank") {
      std::size_t r = 0;
      if (!(ls >> r) || r >= ranks) fail(line_no, "bad rank directive");
      current = r;
      continue;
    }
    if (current >= ranks) fail(line_no, "op before any 'rank' directive");

    sim::Op op;
    bool ok = true;
    if (verb == "cpu") {
      op.kind = sim::OpKind::kCpuCompute;
      ok = static_cast<bool>(ls >> op.instructions >> op.flops >>
                             op.dram_bytes >> op.profile >> op.phase);
    } else if (verb == "gpu") {
      op.kind = sim::OpKind::kGpuKernel;
      std::string mm;
      int dp = 1;
      ok = static_cast<bool>(ls >> op.flops >> op.dram_bytes >> mm >>
                             op.parallelism >> dp >> op.phase);
      if (ok) {
        op.mem_model = parse_mem_model(mm, line_no);
        op.double_precision = dp != 0;
      }
    } else if (verb == "h2d" || verb == "d2h") {
      op.kind = verb == "h2d" ? sim::OpKind::kCopyH2D : sim::OpKind::kCopyD2H;
      std::string mm;
      ok = static_cast<bool>(ls >> op.bytes >> mm >> op.phase);
      if (ok) op.mem_model = parse_mem_model(mm, line_no);
    } else if (verb == "send" || verb == "recv" || verb == "isend" ||
               verb == "irecv") {
      op.kind = verb == "send"    ? sim::OpKind::kSend
                : verb == "recv"  ? sim::OpKind::kRecv
                : verb == "isend" ? sim::OpKind::kIsend
                                  : sim::OpKind::kIrecv;
      ok = static_cast<bool>(ls >> op.peer >> op.bytes >> op.tag >> op.phase);
      if (ok && (op.peer < 0 || static_cast<std::size_t>(op.peer) >= ranks ||
                 static_cast<std::size_t>(op.peer) == current)) {
        fail(line_no, "rank " + std::to_string(current) + " cannot '" + verb +
                          "' peer " + std::to_string(op.peer));
      }
    } else if (verb == "waitall") {
      op.kind = sim::OpKind::kWaitAll;
      ok = static_cast<bool>(ls >> op.phase);
    } else if (verb == "phase") {
      op.kind = sim::OpKind::kPhase;
      ok = static_cast<bool>(ls >> op.phase);
    } else if (verb == "delay") {
      op.kind = sim::OpKind::kDelay;
      ok = static_cast<bool>(ls >> op.delay_seconds >> op.phase);
    } else {
      fail(line_no, "unknown op '" + verb + "'");
    }
    if (!ok) fail(line_no, "malformed '" + verb + "' op");
    programs[current].push_back(op);
  }
  return programs;
}

std::vector<sim::Program> load_trace(const std::string& path) {
  std::ifstream in(path);
  SOC_REQUIRE(in.good(), "cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return import_programs(buffer.str());
}

}  // namespace soc::trace
