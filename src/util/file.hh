/**
 * @file
 * Whole-file I/O for every artifact the simulator reads or writes:
 * one reader and two writers. Reports, traces and metrics are
 * written in place, so a path such as /dev/stdout works; fragments,
 * manifests and snapshots go through a temporary file and a rename,
 * so a reader sees the old file or the new one, never half of one.
 * Each caller words its own errors from the step that failed.
 */

#ifndef DRISIM_UTIL_FILE_HH
#define DRISIM_UTIL_FILE_HH

#include <string>
#include <string_view>

namespace drisim
{

/** Read the whole of @p path into @p out; false when it cannot be
 *  opened or read. */
bool readFile(const std::string &path, std::string &out);

/** The step at which a whole-file write failed. */
enum class WriteStep { None, Open, Write, Rename };

/**
 * Write @p contents over @p path in place. The write counts only
 * once the file closes cleanly (a buffered write to a full device
 * fails there). Returns the step that failed, or None.
 */
WriteStep writeFile(const std::string &path, std::string_view contents);

/**
 * Write @p contents to `<path>.tmp`, then rename it over @p path.
 * Returns the step that failed, or None; a failed rename leaves its
 * cause in @p reason.
 */
WriteStep writeFileAtomic(const std::string &path,
                          std::string_view contents, std::string &reason);

} // namespace drisim

#endif // DRISIM_UTIL_FILE_HH
