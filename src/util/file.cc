/**
 * @file
 * Whole-file read, in-place write and tmp+rename write.
 */

#include "util/file.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>

namespace drisim
{

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

WriteStep
writeFile(const std::string &path, std::string_view contents)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return WriteStep::Open;
    const bool written = std::fwrite(contents.data(), 1, contents.size(),
                                     f) == contents.size();
    const bool closed = std::fclose(f) == 0;
    return written && closed ? WriteStep::None : WriteStep::Write;
}

WriteStep
writeFileAtomic(const std::string &path, std::string_view contents,
                std::string &reason)
{
    const std::string tmp = path + ".tmp";
    if (const WriteStep s = writeFile(tmp, contents); s != WriteStep::None)
        return s;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        reason = ec.message();
        return WriteStep::Rename;
    }
    return WriteStep::None;
}

} // namespace drisim
