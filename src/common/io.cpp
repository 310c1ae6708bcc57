#include "common/io.h"

#include <fstream>

#include "common/error.h"

namespace soc {

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  SOC_REQUIRE(!out.fail(), "cannot write " + path);
}

}  // namespace soc
