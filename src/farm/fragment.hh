/**
 * @file
 * Per-shard sweep-result fragments (docs/REPRODUCTION.md, Farm
 * mode).
 *
 * A sharded bench run streams every completed unit's report rows
 * into a BENCH_*.part.json fragment, rewritten record-at-a-time via
 * temp-file + atomic rename: a shard killed at any instant leaves a
 * complete, parseable fragment of its finished work — it loses at
 * most the in-flight units. Re-running the same shard
 * resumes from the fragment (completed units are never recomputed;
 * locked by tests/farm_test.cc and the CI farm leg).
 *
 * The fragment carries the full sweep plan (every unit's index and
 * stable config hash, not just this shard's), so tools/sweep_merge
 * can detect holes and attribute each missing unit to the shard
 * that owns it without re-deriving the grid.
 */

#ifndef DRISIM_FARM_FRAGMENT_HH
#define DRISIM_FARM_FRAGMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "farm/shard_plan.hh"

namespace drisim::farm
{

/**
 * One row-producing unit of a sweep, in plan order. `hash` is the
 * FNV-1a of `config` (the unit's canonical ConfigKey string) — the
 * shard key and the merge dedup key.
 */
struct SweepUnit
{
    /** Display label (benchmark or mix name). */
    std::string label;
    /** Canonical config string of the unit's identity key. */
    std::string config;
    std::uint64_t hash = 0;
    /** toHex64(hash), as stored in fragments and manifests. */
    std::string hashHex;
};

/** A completed unit recorded in a fragment. */
struct FragmentRecord
{
    std::uint64_t index = 0; ///< plan index
    std::string hash;        ///< unit hash (hex)
    std::string config;      ///< full canonical config string
    /**
     * Wall seconds the unit took, formatted "%.3f" (pinned by
     * DRISIM_JSON_WALL_SECONDS like the report wall clock).
     * Provenance only: merge dedup compares config and rows, never
     * this — overlapping re-runs legitimately differ here.
     */
    std::string wallSeconds = "0.000";
    /** The unit's report rows (>= 0 rows of column cells). */
    std::vector<std::vector<std::string>> rows;
};

/** A planned unit as recorded in a fragment (index + hash only). */
struct FragmentPlanEntry
{
    std::uint64_t index = 0;
    std::string hash;
};

/** One shard's result stream, as read from/written to disk. */
struct Fragment
{
    /** 2: records carry per-unit wall_seconds. A version-1 file
     *  fails the strict parse and is discarded on resume (the shard
     *  starts clean), never misread. */
    unsigned schemaVersion = 2;
    std::string bench; ///< report name, e.g. "bench_figure4"
    ShardPlan shard;
    std::vector<std::string> columns;
    /** The FULL sweep plan (all shards' units). */
    std::vector<FragmentPlanEntry> plan;
    /** This shard's completed units, in plan-index order (whatever
     *  order they completed in). */
    std::vector<FragmentRecord> records;
    /** True once the shard ran every unit it owns. */
    bool complete = false;

    /** Where the fragment was read from (diagnostics only). */
    std::string sourcePath;
};

/** Serialize @p f to its on-disk JSON form. */
std::string renderFragment(const Fragment &f);

/**
 * Parse a fragment file. Returns false with @p error on a missing
 * or malformed file — a torn write cannot happen (writes are
 * rename-atomic), so any parse failure means the file is not a
 * fragment at all.
 */
bool readFragment(const std::string &path, Fragment &out,
                  std::string &error);

/** util/file.hh's writeFileAtomic (tmp + rename, no fsync), with
 *  the failed step worded into @p error. */
bool writeFileAtomic(const std::string &path,
                     const std::string &contents,
                     std::string &error);

/**
 * Record-at-a-time fragment writer with resume. Construction reads
 * any existing fragment at @p path: if it matches this run's
 * identity (bench, shard spec, columns and full plan), its records
 * are adopted and hasRecord() reports them, so the caller skips
 * those units entirely; a mismatched or unparseable file is
 * discarded with a warning and the shard starts clean.
 */
class FragmentWriter
{
  public:
    FragmentWriter(std::string path, std::string bench,
                   ShardPlan shard,
                   std::vector<std::string> columns,
                   const std::vector<SweepUnit> &units);

    /** True when the resumed fragment already holds unit @p index. */
    bool hasRecord(std::uint64_t index) const;

    /** Records adopted from a previous (killed) run of this shard. */
    std::size_t resumedRecords() const { return resumed_; }

    /**
     * Insert one completed unit at its plan position and rewrite the
     * fragment atomically (rename). A crash between units loses
     * nothing; a crash while units run loses only those units. @p
     * wallSeconds is the unit's wall clock, already formatted "%.3f"
     * (empty keeps the "0.000" default).
     */
    void addRecord(std::uint64_t index, const SweepUnit &unit,
                   const std::vector<std::vector<std::string>> &rows,
                   const std::string &wallSeconds = std::string());

    /** Mark the shard's work complete and rewrite. */
    void finalize();

    const std::string &path() const { return path_; }
    const Fragment &fragment() const { return frag_; }

  private:
    void rewrite();

    std::string path_;
    Fragment frag_;
    std::size_t resumed_ = 0;
};

} // namespace drisim::farm

#endif // DRISIM_FARM_FRAGMENT_HH
