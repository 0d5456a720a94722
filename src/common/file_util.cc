#include "common/file_util.h"

#include <cstdio>

namespace polydab {

Status ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on '" + path + "'");
  return Status::OK();
}

}  // namespace polydab
