// The workload registry: a static table of (tag, factory) entries.
// list() and make_workload() both derive from this one table, so adding a
// workload is a one-line change and the name list can never drift from
// what make_workload accepts.
#include <algorithm>

#include "common/error.h"
#include "workloads/dnn_workloads.h"
#include "workloads/npb.h"
#include "workloads/scientific.h"
#include "workloads/workload.h"

namespace soc::workloads {

namespace {

struct Registration {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};

const std::vector<Registration>& registrations() {
  static const std::vector<Registration> kRegistry = {
      {"hpl",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<HplWorkload>();
       }},
      {"jacobi",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<JacobiWorkload>();
       }},
      {"cloverleaf",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<CloverLeafWorkload>();
       }},
      {"tealeaf2d",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<TeaLeafWorkload>(tealeaf2d_default());
       }},
      {"tealeaf3d",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<TeaLeafWorkload>(tealeaf3d_default());
       }},
      {"alexnet",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<DnnWorkload>(DnnWorkload::Network::kAlexNet);
       }},
      {"googlenet",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<DnnWorkload>(DnnWorkload::Network::kGoogLeNet);
       }},
      {"bt",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_bt_spec());
       }},
      {"cg",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_cg_spec());
       }},
      {"ep",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_ep_spec());
       }},
      {"ft",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_ft_spec());
       }},
      {"is",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_is_spec());
       }},
      {"lu",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_lu_spec());
       }},
      {"mg",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_mg_spec());
       }},
      {"sp",
       +[]() -> std::unique_ptr<Workload> {
         return std::make_unique<NpbWorkload>(npb_sp_spec());
       }},
  };
  return kRegistry;
}

std::string joined_names() {
  std::string out;
  for (const std::string& name : list()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& list() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(registrations().size());
    for (const Registration& r : registrations()) names.emplace_back(r.name);
    return names;
  }();
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  for (const Registration& r : registrations()) {
    if (name == r.name) return r.make();
  }
  SOC_CHECK(false,
            "unknown workload '" + name + "' (valid: " + joined_names() + ")");
  return nullptr;
}

}  // namespace soc::workloads
