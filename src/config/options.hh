/**
 * @file
 * Every command-line knob of the simulator binaries: one constant
 * table with one row per knob, in the one-row-per-knob shape of
 * CACTI's cache.cfg, and one parser, parseArgs(), that the bench
 * binaries, quickstart, param_tuner and phase_explorer all call with
 * the rows they honor (knobRows()).
 *
 * Spelling: every row reads as `name=V`, `--name V` and `--name=V`.
 * In the flag form `-` stands for `.` and `_` (`--dram-banked` is
 * `dram.banked`, `--checkpoint-dir` is `checkpoint_dir`), a boolean
 * row alone (`--sample`) sets it, and `-j N` is `--jobs N`. Bare
 * tokens fill `benchmark`, then `instrs`, wherever they appear.
 * Sizes take 512 / 4K / 1M suffixes; counts go through the strict
 * bounded parser (util/parse.hh), so "-1" is rejected instead of
 * wrapping. An unknown name, an empty value in any spelling and a
 * cache geometry the caches cannot build are errors. The usage text
 * is generated from the rows (knobUsage()).
 *
 * `coreK.*` rows configure CMP core K (system/cmp.hh). A
 * `coreK.dri.*` or `coreK.policy*` row starts that core's knobs from
 * the global `dri.*` / `policy*` template as parsed *so far*, so put
 * global keys first; cores without such rows follow the final
 * template.
 *
 * The run keys (harness/runner.hh) stay hand-written: most of their
 * columns have no knob, several names differ, and one row can set
 * several columns. Each row instead declares which key it reaches,
 * and tests/options_test.cc checks every row against its
 * declaration.
 */

#ifndef DRISIM_CONFIG_OPTIONS_HH
#define DRISIM_CONFIG_OPTIONS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dri_params.hh"
#include "harness/runner.hh"
#include "policy/leakage_policy.hh"
#include "system/cmp.hh"

namespace drisim
{

/** Raw per-core overrides collected from coreK.* keys. */
struct CoreOverride
{
    /** coreK.bench; empty = use the global `benchmark`. */
    std::string bench;
    /** coreK.dri: -1 unset, else 0/1 (a per-core opt-out/in). */
    int dri = -1;
    /** Any coreK.dri.* knob appeared: driParams is authoritative
     *  for this core. Otherwise the core takes the final global
     *  dri.* template. */
    bool driKnobsSet = false;
    /** This core's L1I resize knobs (seeded from the global dri.*
     *  template at the point the first coreK.dri.* knob appears,
     *  so put global dri.* keys before per-core ones). */
    DriParams driParams{};
    /** Any coreK.policy* key appeared: policy is authoritative for
     *  this core (same seeding rule as driKnobsSet). */
    bool policySet = false;
    /** This core's leakage technique + knobs. */
    PolicyConfig policy{};
};

/** Parsed command-line experiment options. */
struct Options
{
    RunConfig run;
    DriParams dri;
    std::string benchmark = "compress";

    /** `policy=` + `policy.*`: the L1I leakage technique. The
     *  embedded DriParams is kept in sync with `dri` by
     *  policyConfig(). */
    PolicyConfig policy;

    /** `cores=`; 1 = the classic single-core scenario. */
    unsigned cores = 1;
    /** `coherence=` + `coherence.*`: MSI over the private L1s
     *  (mem/directory.hh); disabled by default. */
    CoherenceConfig coherence;
    /** Sparse coreK.* overrides (index = K). */
    std::vector<CoreOverride> coreOverrides;

    /** `trace=FILE`: Perfetto/chrome-trace span output
     *  (src/obs/trace.hh). Execution-only like `jobs` — never
     *  enters a run's identity key; empty = disabled. */
    std::string tracePath;
    /** `metrics=FILE`: interval time-series CSV output
     *  (src/obs/metrics.hh). Execution-only; empty = disabled. */
    std::string metricsPath;
    /** `metrics.interval=N`: instructions per metrics sample
     *  (0 = obs::kDefaultMetricsInterval). Execution-only. */
    std::uint64_t metricsInterval = 0;

    /** The bench binaries' own rows (bench/bench_common.hh), all
     *  execution-only: `list` prints the workload names and exits,
     *  `json` writes the winner rows as a report, `short` runs the
     *  compress+li subset, `part` streams completed sweep units
     *  into a resumable fragment (farm/fragment.hh) and `coherent`
     *  switches bench_cmp to its MSI sharing study. */
    bool list = false;
    std::string jsonPath;
    bool shortRun = false;
    std::string partPath;
    bool coherent = false;

    /**
     * Resolve the per-core configs for a CMP run: one entry per
     * core, benchmarks defaulted to `benchmark`, knobs defaulted to
     * the global dri.* template. @p driByDefault is the leg's
     * intent — the DRI leg passes true, a conventional baseline
     * false — and gates every core: with it false all cores come
     * out conventional (so per-core knob keys can never pollute a
     * baseline), and with it true `coreK.dri=0` opts a core out.
     */
    std::vector<CmpCoreConfig> cmpCores(bool driByDefault) const;

    /** Full CmpConfig for a CMP run (shape + resolved cores). */
    CmpConfig cmpConfig(bool driByDefault) const;

    /**
     * The resolved global policy configuration: the `policy`
     * selection with its DriParams synchronized to the final `dri`
     * template (so `dri.*` keys keep working under `policy=dri`
     * and supply the shared geometry for every technique).
     */
    PolicyConfig policyConfig() const;
};

/** The run identity a knob must reach. */
enum class Reach
{
    /** Changes runKey(): it can change a single-core result. */
    RunKey,
    /** Changes runKeyCmp(): it shapes a CMP run only. */
    CmpKey,
    /** Execution-only: changes neither key. */
    None,
};

/** The binaries; Knob::binaries is a mask of these. */
enum Binary : unsigned
{
    kQuickstart = 1u << 0,
    kParamTuner = 1u << 1,
    kPhaseExplorer = 1u << 2,
    /** bench_table1, bench_table2: no sweep to shard. */
    kTableBench = 1u << 3,
    /** bench_figure3/5/6, bench_section56, bench_multilevel. */
    kSweepBench = 1u << 4,
    /** bench_figure4, bench_policies: a sweep with --short. */
    kShortBench = 1u << 5,
    /** bench_cmp: a sweep with --cores and --coherent. */
    kCmpBench = 1u << 6,
    kBinaryEnd = 1u << 7,
};

/** One knob: a row of the table. */
struct Knob
{
    /** Key spelling; a `coreK.` prefix takes a core index for K. */
    const char *name;
    /** Value placeholder for the usage text; null for a boolean. */
    const char *value;
    /** One line of usage. */
    const char *help;
    Reach reach;
    /** The binaries that take the row (a mask of Binary). */
    unsigned binaries;
    /**
     * Strict apply into Options: false rejects @p value and leaves
     * the parse failed. @p core is K for a coreK row. A boolean
     * given alone as --name applies "1".
     */
    bool (*apply)(Options &out, const std::string &value,
                  unsigned core);
};

/** The shared rows any binary in the mask @p binaries takes, in
 *  table order (kBinaryEnd - 1 gives every row), then @p local: rows
 *  only one binary defines. */
std::vector<const Knob *> knobRows(unsigned binaries,
                                   std::span<const Knob> local = {});

/**
 * Parse argv[1..] through @p rows into @p out, on top of the
 * defaults @p out already holds. Returns false on an unknown name, a
 * missing or bad value, a surplus bare token or a cache geometry the
 * caches cannot build, with @p error naming the knob on its first
 * line followed by the usage. Installs nothing (installObsSinks()).
 */
bool parseArgs(int argc, const char *const *argv,
               const std::vector<const Knob *> &rows, Options &out,
               std::string &error);

/** Usage text for @p prog generated from @p rows. */
std::string knobUsage(const std::string &prog,
                      const std::vector<const Knob *> &rows);

/** A boolean knob value: 1/true/yes or 0/false/no. */
bool parseFlag(const std::string &text, bool &out);

/** Install the trace and metrics sinks @p opts names, once, after
 *  parsing: every layer's hooks then find them (obs/trace.hh,
 *  obs/metrics.hh). */
void installObsSinks(const Options &opts);

/** Write the installed sinks out, one stderr line each. */
void writeObsSinks();

} // namespace drisim

#endif // DRISIM_CONFIG_OPTIONS_HH
