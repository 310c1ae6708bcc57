// Artifact output shared by every writer the tools reach.
#pragma once

#include <string>

namespace soc {

/// Writes `text` to `path`, replacing any existing file.  A path that
/// cannot be opened or written throws soc::UsageError("cannot write
/// <path>"): the user named it, so the tools report it in one line.
void write_text(const std::string& path, const std::string& text);

}  // namespace soc
