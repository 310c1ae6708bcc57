#include "sweep/grid.h"

#include "common/error.h"

namespace soc::sweep {

int natural_ranks(const workloads::Workload& workload, int nodes) {
  const std::string n = workload.name();
  if (n == "alexnet" || n == "googlenet") return 4 * nodes;
  if (!workload.gpu_accelerated()) return 2 * nodes;
  return nodes;
}

namespace {

/// Columns an axis contributes: empty option axes still produce one
/// column (the inherited base value).
std::size_t width(std::size_t axis_size) {
  return axis_size == 0 ? 1 : axis_size;
}

}  // namespace

std::size_t Grid::size() const {
  return workloads.size() * width(nodes.size()) * width(nics.size()) *
         width(mem_models.size()) * width(gpu_fractions.size()) *
         width(dvfs.size());
}

std::size_t Grid::index(std::size_t iworkload, std::size_t inode,
                        std::size_t inic, std::size_t imem,
                        std::size_t ifraction, std::size_t idvfs) const {
  SOC_CHECK(iworkload < workloads.size() && inode < width(nodes.size()) &&
                inic < width(nics.size()) && imem < width(mem_models.size()) &&
                ifraction < width(gpu_fractions.size()) &&
                idvfs < width(dvfs.size()),
            "grid index out of range");
  std::size_t i = iworkload;
  i = i * width(nodes.size()) + inode;
  i = i * width(nics.size()) + inic;
  i = i * width(mem_models.size()) + imem;
  i = i * width(gpu_fractions.size()) + ifraction;
  i = i * width(dvfs.size()) + idvfs;
  return i;
}

std::vector<cluster::RunRequest> Grid::requests() const {
  SOC_CHECK(!nodes.empty(), "grid needs at least one node count");
  SOC_CHECK(!nics.empty(), "grid needs at least one NIC kind");

  std::vector<cluster::RunRequest> out;
  out.reserve(size());
  for (const std::string& tag : workloads) {
    // One instance per workload tag, just to derive rank counts; the
    // requests name workloads by tag so each run resolves its own.
    const std::unique_ptr<workloads::Workload> w =
        workloads::make_workload(tag);
    for (const int n : nodes) {
      const int r = natural_ranks(*w, n);
      for (const net::NicKind nic : nics) {
        const systems::NodeConfig node = systems::jetson_tx1(nic);
        for (std::size_t imem = 0; imem < width(mem_models.size()); ++imem) {
          for (std::size_t ifrac = 0; ifrac < width(gpu_fractions.size());
               ++ifrac) {
            for (std::size_t idvfs = 0; idvfs < width(dvfs.size()); ++idvfs) {
              cluster::RunRequest request;
              request.workload = tag;
              request.config = {
                  dvfs.empty() ? node : systems::with_dvfs(node, dvfs[idvfs]),
                  n, r};
              request.options = base;
              request.scenario = scenario;
              if (!mem_models.empty()) {
                request.options.mem_model = mem_models[imem];
              }
              if (!gpu_fractions.empty()) {
                request.options.gpu_work_fraction = gpu_fractions[ifrac];
              }
              out.push_back(std::move(request));
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace soc::sweep
