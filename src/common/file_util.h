#ifndef POLYDAB_COMMON_FILE_UTIL_H_
#define POLYDAB_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

/// \file file_util.h
/// Whole-file reads for the line-oriented loaders (traces, series,
/// checkpoints, WALs).

namespace polydab {

/// Read all of \p path into \p out. InvalidArgument "cannot open '<path>'"
/// when the file cannot be opened; Internal "read error on '<path>'" when
/// a read fails part-way (a directory opens but does not read).
Status ReadFileToString(const std::string& path, std::string* out);

}  // namespace polydab

#endif  // POLYDAB_COMMON_FILE_UTIL_H_
