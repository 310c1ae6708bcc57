#include "trace/timeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace soc::trace {

namespace {

char glyph(double utilization) {
  if (utilization < 0.05) return ' ';
  if (utilization < 0.25) return '.';
  if (utilization < 0.50) return '-';
  if (utilization < 0.75) return '=';
  if (utilization < 0.95) return '#';
  return '@';
}

// Resamples a busy-seconds lane into `width` utilization buckets.
std::string strip(const std::vector<double>& lane, double bin_seconds,
                  double total_seconds, int width, double capacity) {
  std::string out(static_cast<std::size_t>(width), ' ');
  if (total_seconds <= 0.0 || capacity <= 0.0) return out;
  const double bucket_seconds = total_seconds / width;
  for (int b = 0; b < width; ++b) {
    const double t0 = b * bucket_seconds;
    const double t1 = t0 + bucket_seconds;
    double busy = 0.0;
    for (std::size_t bin = 0; bin < lane.size(); ++bin) {
      const double b0 = static_cast<double>(bin) * bin_seconds;
      const double b1 = b0 + bin_seconds;
      const double overlap = std::min(t1, b1) - std::max(t0, b0);
      if (overlap <= 0.0) continue;
      // Assume uniform density within the bin.
      busy += lane[bin] * overlap / bin_seconds;
    }
    out[static_cast<std::size_t>(b)] =
        glyph(busy / (bucket_seconds * capacity));
  }
  return out;
}

}  // namespace

std::string render_timeline(const sim::RunStats& stats,
                            const TimelineOptions& options) {
  SOC_CHECK(options.width >= 8, "timeline too narrow");
  SOC_CHECK(options.cores_per_node >= 1, "need at least one core");
  std::ostringstream os;
  const double seconds = stats.seconds();
  os << "timeline: 0s";
  const int pad = options.width - 2;
  os << std::string(static_cast<std::size_t>(std::max(pad - 6, 1)), ' ')
     << std::round(seconds * 100.0) / 100.0 << "s\n";

  const int shown = std::min<int>(static_cast<int>(stats.nodes.size()),
                                  options.max_nodes);
  for (int n = 0; n < shown; ++n) {
    const sim::NodeTimeline& tl = stats.nodes[static_cast<std::size_t>(n)];
    os << "node" << n << " cpu |"
       << strip(tl.cpu_busy, sim::kTimelineBinSeconds, seconds,
                options.width, options.cores_per_node)
       << "|\n";
    if (!tl.gpu_busy.empty()) {
      os << "node" << n << " gpu |"
         << strip(tl.gpu_busy, sim::kTimelineBinSeconds, seconds,
                  options.width, 1.0)
         << "|\n";
    }
    if (!tl.nic_busy.empty()) {
      os << "node" << n << " nic |"
         << strip(tl.nic_busy, sim::kTimelineBinSeconds, seconds,
                  options.width, 1.0)
         << "|\n";
    }
  }
  if (static_cast<int>(stats.nodes.size()) > shown) {
    os << "(" << stats.nodes.size() - static_cast<std::size_t>(shown)
       << " more nodes not shown)\n";
  }
  os << "legend: ' '<5% '.'<25% '-'<50% '='<75% '#'<95% '@'>=95%\n";
  return os.str();
}

}  // namespace soc::trace
