/**
 * @file
 * The benchmark's layer pass: drives each simulator layer's public
 * classes directly on one workload's inputs and reports per-layer
 * host cost, plus the simulated counts that pin each layer's
 * behaviour (they must not move under a speed-only change).
 *
 *   layer_pass --workload NAME --seed N [--trace FILE]
 *
 * With --trace, a span is recorded around every call into a layer
 * (name, start, end, parent, workload id) and the spans are written
 * as chrome-trace JSON when the pass ends; tools/trace_report and
 * Perfetto read the file. Without it no span is recorded, so running
 * the pass both ways measures the tracing overhead. One JSON object
 * with the pass's wall time and its metrics goes to stdout.
 *
 * Only the layers a sweep spends its time in are driven: workload/,
 * cpu/, mem/, core/, policy/, system/ and the Executor. The run
 * harness (harness/runner) is deliberately not used, so the pass
 * keeps working while that layer is rewritten.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dri_icache.hh"
#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "harness/executor.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "policy/leakage_policy.hh"
#include "system/cmp.hh"
#include "workload/generator.hh"
#include "workload/program.hh"
#include "workload/spec_suite.hh"

using namespace drisim;

namespace
{

using Clock = std::chrono::steady_clock;

// Run lengths per benchmark. Long enough for several DRI sense
// intervals (100K instructions) on the fetch side, short enough that
// the pass over 18 benchmarks stays a few seconds.
constexpr InstCount kStreamInstrs = 400 * 1000;
constexpr InstCount kDetailedInstrs = 100 * 1000;
constexpr InstCount kCmpInstrsPerCore = 100 * 1000;
constexpr std::size_t kEmptyJobs = 20000;
constexpr unsigned kWorkers = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** In-memory span recorder; a disabled recorder records nothing. */
class Spans
{
  public:
    Spans(bool enabled, std::string workloadId)
        : enabled_(enabled), workloadId_(std::move(workloadId))
    {
    }

    /** Open a span under @p parent (-1 = root); returns its id. */
    int open(const std::string &cat, const std::string &name,
             int parent)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({cat, name, micros(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].dur =
                micros() - spans_[static_cast<std::size_t>(id)].ts;
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome-trace JSON in the key order obs::readTrace expects. */
    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"" << s.cat
                << "\", \"ph\": \"X\", \"ts\": " << s.ts
                << ", \"dur\": " << s.dur
                << ", \"pid\": 1, \"tid\": 0, \"args\": {\"id\": \"" << i
                << "\", \"parent\": \"" << s.parent
                << "\", \"workload\": \"" << workloadId_ << "\"}}";
        }
        out << "\n], \"displayTimeUnit\": \"ms\"}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string cat;
        std::string name;
        std::uint64_t ts;
        std::uint64_t dur;
        int parent;
    };

    std::uint64_t micros() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - origin_)
                .count());
    }

    bool enabled_;
    std::string workloadId_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Spans &spans, const std::string &cat, const std::string &name,
          int parent)
        : spans_(spans), id_(spans.open(cat, name, parent))
    {
    }
    ~Scope() { spans_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Spans &spans_;
    int id_;
};

/** One workload's inputs, as the matching bench binary sees them. */
struct WorkloadSpec
{
    std::vector<std::string> benches;
    /** L1I geometry of the binary's conventional baseline. */
    unsigned l1iAssoc = 1;
};

bool
workloadSpec(const std::string &name, WorkloadSpec &out)
{
    if (name == "dri_search" || name == "policy_compare") {
        for (const BenchmarkInfo &b : specSuite())
            out.benches.push_back(b.name);
        // bench_policies runs its head-to-head on a 64 KB 4-way L1I.
        out.l1iAssoc = name == "policy_compare" ? 4 : 1;
        return true;
    }
    if (name == "cmp_coherent") {
        out.benches = {"shared_image", "producer", "consumer"};
        return true;
    }
    return false;
}

/** The sharing mixes `bench_cmp --cores 4 --coherent` runs. */
std::vector<std::vector<std::string>>
coherentMixes()
{
    return {{"shared_image", "shared_image", "shared_image",
             "shared_image"},
            {"producer", "consumer", "producer", "consumer"}};
}

/** The suite spec of @p name with its seed moved by @p seed, so a
 *  new --seed gives inputs no run was tuned on (0 keeps the suite's
 *  own seed). */
ProgramSpec
reseeded(const std::string &name, std::uint64_t seed)
{
    ProgramSpec spec = findBenchmark(name).spec;
    std::uint64_t z = spec.seed + seed * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    if (seed != 0)
        spec.seed = z ^ (z >> 31);
    return spec;
}

/** A fetch-block entry: its address and the instructions retired
 *  since the previous entry (what drives the resize intervals). */
struct FetchRef
{
    Addr addr;
    InstCount retired;
};

struct DataRef
{
    Addr addr;
    AccessType type;
};

/** Fetch-block and data streams of the first @p n instructions. */
void
recordStreams(const ProgramImage &img, InstCount n, unsigned blockBytes,
              std::vector<FetchRef> &fetch, std::vector<DataRef> &data)
{
    TraceGenerator gen(img);
    Instr in;
    Addr lastBlock = ~Addr{0};
    InstCount sinceLast = 0;
    for (InstCount i = 0; i < n && gen.next(in); ++i) {
        ++sinceLast;
        const Addr block = in.pc / blockBytes;
        if (block != lastBlock) {
            fetch.push_back({block * blockBytes, sinceLast});
            sinceLast = 0;
            lastBlock = block;
        }
        if (in.op == OpClass::Load)
            data.push_back({in.memAddr, AccessType::Load});
        else if (in.op == OpClass::Store)
            data.push_back({in.memAddr, AccessType::Store});
    }
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** One reported figure. */
struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Accumulated host time and work of one timed call site. */
struct Tally
{
    double seconds = 0.0;
    double work = 0.0;
    double nsPer() const { return work > 0 ? 1e9 * seconds / work : 0; }
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string tracePath;
    std::uint64_t seed = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            workload = argv[i + 1];
        } else if (arg == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(argv[i + 1], &end, 10);
            if (end == argv[i + 1] || *end != '\0') {
                std::fprintf(stderr, "bad seed '%s'\n", argv[i + 1]);
                return 2;
            }
        } else if (arg == "--trace") {
            tracePath = argv[i + 1];
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    WorkloadSpec spec;
    if ((argc - 1) % 2 != 0 || !workloadSpec(workload, spec)) {
        std::fprintf(stderr,
                     "usage: layer_pass --workload dri_search|"
                     "policy_compare|cmp_coherent --seed N "
                     "[--trace FILE]\n");
        return 2;
    }

    const auto passStart = Clock::now();
    Spans spans(!tracePath.empty(),
                workload + "#seed=" + std::to_string(seed));
    const int rootId =
        spans.open("pass", "layer_pass/" + workload, -1);

    HierarchyParams hier;
    hier.l1i.assoc = spec.l1iAssoc;

    Tally build;
    Tally gen;
    Tally fast;
    Tally detailed;
    Tally l1i;
    Tally l1d;
    Tally dri;
    std::map<PolicyKind, Tally> policy;
    std::vector<double> detailedMs;
    double l1iMisses = 0;
    double detailedCycles = 0;
    double driActiveSum = 0;
    double driResizes = 0;
    double wakes = 0;

    for (const std::string &name : spec.benches) {
        const Scope benchScope(spans, "bench", name, rootId);
        const int parent = benchScope.id();

        ProgramImage img;
        {
            const Scope s(spans, "workload", name + "/build", parent);
            const auto t0 = Clock::now();
            img = buildProgram(reseeded(name, seed));
            build.seconds += secondsSince(t0);
        }

        {
            const Scope s(spans, "workload", name + "/generate", parent);
            TraceGenerator g(img);
            Instr in;
            InstCount n = 0;
            const auto t0 = Clock::now();
            while (n < kStreamInstrs && g.next(in))
                ++n;
            gen.seconds += secondsSince(t0);
            gen.work += static_cast<double>(n);
        }

        {
            const Scope s(spans, "cpu", name + "/fast", parent);
            stats::StatGroup group("fast");
            Hierarchy h(hier, &group, true);
            SimpleCoreParams scp;
            scp.fetchBlockBytes = hier.l1i.blockBytes;
            SimpleCore core(scp, h.l1i());
            TraceGenerator g(img);
            const auto t0 = Clock::now();
            const CoreStats cs = core.run(g, kStreamInstrs);
            fast.seconds += secondsSince(t0);
            fast.work += static_cast<double>(cs.instructions);
        }

        {
            const Scope s(spans, "cpu", name + "/detailed", parent);
            stats::StatGroup group("sim");
            Hierarchy h(hier, &group, true);
            OooCore core(OooParams{}, h.l1i(), &h.l1d(), &group);
            TraceGenerator g(img);
            const auto t0 = Clock::now();
            const CoreStats cs = core.run(g, kDetailedInstrs);
            const double sec = secondsSince(t0);
            detailed.seconds += sec;
            detailed.work += static_cast<double>(cs.instructions);
            detailedCycles += static_cast<double>(cs.cycles);
            detailedMs.push_back(1e3 * sec);
        }

        std::vector<FetchRef> fetch;
        std::vector<DataRef> data;
        {
            const Scope s(spans, "workload", name + "/record", parent);
            fetch.reserve(kStreamInstrs / 4);
            data.reserve(kStreamInstrs / 2);
            recordStreams(img, kStreamInstrs, hier.l1i.blockBytes, fetch,
                          data);
        }

        double convMisses = 0;
        {
            const Scope s(spans, "mem", name + "/l1i", parent);
            stats::StatGroup group("l1i");
            Cache cache(hier.l1i, nullptr, &group);
            const auto t0 = Clock::now();
            for (const FetchRef &r : fetch)
                cache.access(r.addr, AccessType::InstFetch);
            l1i.seconds += secondsSince(t0);
            l1i.work += static_cast<double>(cache.accesses());
            convMisses = static_cast<double>(cache.misses());
            l1iMisses += convMisses;
        }

        {
            const Scope s(spans, "mem", name + "/l1d", parent);
            stats::StatGroup group("l1d");
            Cache cache(hier.l1d, nullptr, &group);
            const auto t0 = Clock::now();
            for (const DataRef &r : data)
                cache.access(r.addr, r.type);
            l1d.seconds += secondsSince(t0);
            l1d.work += static_cast<double>(cache.accesses());
        }

        {
            // A mid-grid cell of bench_figure4's search: 8 KB
            // size-bound, miss-bound 8x the conventional misses per
            // sense interval.
            const Scope s(spans, "core", name + "/dri", parent);
            DriParams p;
            p.sizeBytes = hier.l1i.sizeBytes;
            p.assoc = hier.l1i.assoc;
            p.blockBytes = hier.l1i.blockBytes;
            p.sizeBoundBytes = 8192;
            const double intervals =
                static_cast<double>(kStreamInstrs) /
                static_cast<double>(p.senseInterval);
            p.missBound = std::max<std::uint64_t>(
                16, static_cast<std::uint64_t>(8.0 * convMisses /
                                               intervals));
            stats::StatGroup group("dri");
            DriICache cache(p, nullptr, &group);
            const auto t0 = Clock::now();
            for (const FetchRef &r : fetch) {
                cache.access(r.addr, AccessType::InstFetch);
                cache.retireInstructions(r.retired);
                cache.integrateCycles(r.retired);
            }
            dri.seconds += secondsSince(t0);
            dri.work += static_cast<double>(cache.accesses());
            driActiveSum += cache.averageActiveFraction();
            driResizes +=
                static_cast<double>(cache.upsizes() + cache.downsizes());
        }

        for (const PolicyKind kind :
             {PolicyKind::Decay, PolicyKind::Drowsy,
              PolicyKind::StaticWays}) {
            const Scope s(spans, "policy",
                          name + "/" + policyKindName(kind), parent);
            // bench_policies' shared geometry: 64 KB, 4-way, 32 B.
            PolicyConfig cfg;
            cfg.kind = kind;
            cfg.dri.assoc = 4;
            cfg.ways.activeWays = 2;
            stats::StatGroup group("policy");
            std::unique_ptr<LeakagePolicy> pol =
                makeLeakagePolicy(cfg, nullptr, &group);
            MemoryLevel *level = pol->level();
            const auto t0 = Clock::now();
            for (const FetchRef &r : fetch) {
                level->access(r.addr, AccessType::InstFetch);
                pol->onRetire(r.retired);
                pol->onCycles(r.retired);
            }
            policy[kind].seconds += secondsSince(t0);
            policy[kind].work += static_cast<double>(pol->l1Accesses());
            wakes += static_cast<double>(pol->activity().wakeTransitions);
        }
    }

    // The shared-L2 system on the coherent sharing mixes, configured
    // like `bench_cmp --coherent --dram-banked`.
    Tally cmp;
    double invalidations = 0;
    double rowHits = 0;
    double rowAccesses = 0;
    {
        HierarchyParams ch;
        ch.dram.banked = true;
        ch.l1i.mshrs = 4;
        ch.l1d.mshrs = 4;
        ch.l2.mshrs = 8;
        std::map<std::string, ProgramImage> cmpImages;
        for (const std::vector<std::string> &mix : coherentMixes()) {
            std::string label;
            std::vector<const ProgramImage *> imgs;
            for (const std::string &b : mix) {
                const auto [it, fresh] = cmpImages.try_emplace(b);
                if (fresh)
                    it->second = buildProgram(reseeded(b, seed));
                imgs.push_back(&it->second);
                label += (label.empty() ? "" : "+") + b;
            }
            const Scope s(spans, "system", label + "/cmp", rootId);
            CmpConfig cc;
            cc.cores = static_cast<unsigned>(mix.size());
            cc.coherence.enabled = true;
            stats::StatGroup group("cmp");
            CmpSystem sys(cc, ch, OooParams{}, imgs, &group);
            const auto t0 = Clock::now();
            const CmpRunOutput out = sys.run(kCmpInstrsPerCore);
            cmp.seconds += secondsSince(t0);
            for (const CmpCoreOutput &c : out.cores)
                cmp.work += static_cast<double>(c.meas.instructions);
            invalidations +=
                static_cast<double>(out.coherenceInvalidations);
            rowHits += static_cast<double>(out.dramRowHits);
            rowAccesses +=
                static_cast<double>(out.dramRowHits + out.dramRowMisses);
        }
    }

    // Executor dispatch cost: many empty jobs on the sweep's pool
    // width; the median of three rounds.
    std::vector<double> perJobUs;
    {
        Executor exec(kWorkers);
        for (int round = 0; round < 3; ++round) {
            const Scope s(spans, "exec",
                          "empty-jobs/" + std::to_string(round),
                          rootId);
            JobGraph g;
            for (std::size_t j = 0; j < kEmptyJobs; ++j)
                g.add("empty/" + std::to_string(j),
                      [](const JobContext &) {});
            const auto t0 = Clock::now();
            exec.run(g);
            perJobUs.push_back(1e6 * secondsSince(t0) /
                               static_cast<double>(kEmptyJobs));
        }
    }

    const double benches = static_cast<double>(spec.benches.size());
    const std::vector<Metric> metrics{
        {"workload.build_ms", "ms", 1e3 * build.seconds},
        {"workload.gen_ns_per_instr", "ns", gen.nsPer()},
        {"cpu.fast_ns_per_instr", "ns", fast.nsPer()},
        {"cpu.fast_over_gen", "ratio", fast.nsPer() / gen.nsPer()},
        {"cpu.detailed_ns_per_instr", "ns", detailed.nsPer()},
        {"cpu.detailed_ms_p50", "ms", percentile(detailedMs, 0.5)},
        {"cpu.detailed_ms_p90", "ms", percentile(detailedMs, 0.9)},
        {"cpu.ipc", "ratio", detailed.work / detailedCycles},
        {"mem.l1i_access_ns", "ns", l1i.nsPer()},
        {"mem.l1i_miss_ratio", "ratio", l1iMisses / l1i.work},
        {"mem.l1i_accesses", "count", l1i.work},
        {"mem.l1d_access_ns", "ns", l1d.nsPer()},
        {"core.dri_access_ns", "ns", dri.nsPer()},
        {"core.dri_active_frac", "ratio", driActiveSum / benches},
        {"core.dri_resizes", "count", driResizes},
        {"policy.decay_access_ns", "ns",
         policy[PolicyKind::Decay].nsPer()},
        {"policy.drowsy_access_ns", "ns",
         policy[PolicyKind::Drowsy].nsPer()},
        {"policy.ways_access_ns", "ns",
         policy[PolicyKind::StaticWays].nsPer()},
        {"policy.wakes", "count", wakes},
        {"system.cmp_ns_per_instr", "ns", cmp.nsPer()},
        {"system.cmp_kinstr", "count", cmp.work / 1e3},
        {"system.coherence_inval_per_kinstr", "ratio",
         invalidations / (cmp.work / 1e3)},
        {"system.dram_row_hit_ratio", "ratio", rowHits / rowAccesses},
        {"system.dram_row_accesses", "count", rowAccesses},
        {"exec.job_overhead_us", "us", percentile(perJobUs, 0.5)},
    };

    spans.close(rootId);
    const double wall = secondsSince(passStart);
    if (!tracePath.empty() && !spans.write(tracePath)) {
        std::fprintf(stderr, "cannot write trace '%s'\n",
                     tracePath.c_str());
        return 1;
    }

    std::printf("{\"wall_s\": %.6f, \"spans\": %zu, \"metrics\": {",
                wall, spans.size());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
