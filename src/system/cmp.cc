/**
 * @file
 * CmpSystem: N trace-driven cores with private L1s round-robin
 * interleaved over a shared (optionally resizable) L2.
 */

#include "system/cmp.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

namespace
{

/** Add one cache level's MSHR activity to the run's sums. */
void
addMshrs(CmpRunOutput &out, const Cache &level)
{
    out.mshrCoalesced += level.mshrCoalesced();
    out.mshrFullStalls += level.mshrFullStalls();
    out.mshrPeakOccupancy =
        std::max(out.mshrPeakOccupancy, level.mshrPeakOccupancy());
}

} // namespace

SharedL2Bus::SharedL2Bus(MemoryLevel *l2, unsigned blockBytes,
                         unsigned banks, Cycles penalty,
                         unsigned cores)
    : l2_(l2),
      blockBytes_(blockBytes),
      penalty_(penalty),
      lastOwner_(std::max(1u, banks), -1),
      stats_(cores)
{
    drisim_assert(l2 != nullptr, "bus needs a shared level");
    drisim_assert(blockBytes > 0, "bank granule must be positive");
}

void
SharedL2Bus::enableCoherence(const CoherenceConfig &cfg,
                             unsigned cores)
{
    drisim_assert(!coherence_, "coherence already enabled");
    coherence_ = std::make_unique<CoherenceController>(cfg, cores,
                                                       blockBytes_);
}

AccessResult
SharedL2Bus::access(unsigned core, Addr addr, AccessType type,
                    Cycles now)
{
    drisim_assert(core < stats_.size(), "bad bus port %u", core);
    // Block-interleaved banks: charge the contention adder when the
    // bank's previous user was another core. With one core the
    // owner never changes hands and the adder never fires, so the
    // single-core system is latency-identical to a direct L1->L2
    // connection. The adder delays the request's *arrival* below
    // the bus as well as its completion — computed up front and
    // folded into `now`, so banked DRAM queueing sees the true
    // schedule instead of requests landing penalty_ cycles early.
    const std::size_t bank = static_cast<std::size_t>(
        (addr / blockBytes_) % lastOwner_.size());
    const int self = static_cast<int>(core);
    PortStats &s = stats_[core];
    Cycles adder = 0;
    if (lastOwner_[bank] != self) {
        if (lastOwner_[bank] >= 0) {
            adder = penalty_;
            ++s.contention;
        }
        lastOwner_[bank] = self;
    }
    AccessResult r = l2_->accessAt(addr, type, now + adder);
    ++s.accesses;
    if (!r.hit) {
        ++s.misses;
        // Attribute the below-bus fill time to the requester;
        // writeback probes carry no demand latency.
        if (type != AccessType::Store)
            s.missLatency += r.latency;
    }
    r.latency += adder;
    return r;
}

CmpSystem::CmpSystem(const CmpConfig &cmp, const HierarchyParams &hier,
                     const OooParams &coreParams,
                     const std::vector<const ProgramImage *> &images,
                     stats::StatGroup *parent)
    : cmp_(cmp), hier_(hier), shared_(hier, parent)
{
    const unsigned n = cmp.cores;
    drisim_assert(n >= 1 && n <= kMaxCmpCores,
                  "cores must be in [1, %u], got %u", kMaxCmpCores,
                  n);
    drisim_assert(images.size() == n,
                  "need one program image per core (%zu != %u)",
                  images.size(), n);

    bus_ = std::make_unique<SharedL2Bus>(
        &shared_.l2(), hier.l2.blockBytes, cmp.l2Banks,
        cmp.l2ContentionPenalty, n);
    if (cmp.coherence.enabled)
        bus_->enableCoherence(cmp.coherence, n);

    for (unsigned k = 0; k < n; ++k) {
        cpuGroups_.push_back(std::make_unique<stats::StatGroup>(
            parent, strFormat("cpu%u", k)));
        stats::StatGroup *grp = cpuGroups_.back().get();
        ports_.push_back(
            std::make_unique<SharedL2Port>(bus_.get(), k));
        SharedL2Port *port = ports_.back().get();
        l1ds_.push_back(
            std::make_unique<Cache>(hier.l1d, port, grp));

        const CmpCoreConfig cfg = cmp.coreConfig(k);
        LeakagePolicy *policy = nullptr;
        if (cfg.l1i) {
            PolicyConfig pc = *cfg.l1i;
            pc.dri = driParamsForLevel(hier.l1i, pc.dri);
            std::unique_ptr<LeakagePolicy> built =
                makeLeakagePolicy(pc, port, grp);
            policy = built.get();
            l1is_.push_back(std::move(built));
        } else {
            l1is_.push_back(
                std::make_unique<Cache>(hier.l1i, port, grp));
        }
        policies_.push_back(policy);
        Cache *l1i = l1is_.back().get();
        // Coherent runs attach every private L1 to the fabric: the
        // bus is the requester-side agent, and the controller probes
        // the L1D and the L1I (whatever flavour) as core k.
        if (CoherenceController *cc = bus_->coherence()) {
            for (Cache *c : {l1ds_.back().get(), l1i}) {
                c->setCoherence(bus_.get(), k);
                cc->addClient(k, c);
            }
        }
        cores_.push_back(std::make_unique<OooCore>(
            coreParams, l1i, l1ds_.back().get(), grp));
        cores_.back()->addRetireSink(policy);
        gens_.push_back(
            std::make_unique<TraceGenerator>(*images[k]));
    }

    // A shared resizable L2 senses per-core progress directly when
    // there is only one core (the exact single-core runner wiring);
    // with several cores the scheduler drives it from system-wide
    // progress instead (see run()).
    if (n == 1)
        cores_[0]->addRetireSink(shared_.driL2());
}

CmpRunOutput
CmpSystem::run(InstCount maxInstrsPerCore)
{
    const unsigned n = cores();
    std::vector<InstCount> remaining(n, maxInstrsPerCore);
    Cycles sysClock = 0;

    // Per-core interval metrics (observation only): each core is
    // sampled once its committed-instruction count has advanced by
    // the recorder interval since its previous sample, through the
    // single-core runner's sampler and L1I readings, so downstream
    // reports treat both alike.
    obs::TimeSeriesRecorder *metrics =
        obsSeries_.empty() ? nullptr : obs::metrics();
    std::vector<obs::IntervalSampler> samplers;
    if (metrics)
        for (unsigned k = 0; k < n; ++k)
            samplers.emplace_back(*metrics,
                                  obsSeries_ + "/core" +
                                      std::to_string(k));
    const CoherenceController *coh = bus_->coherence();
    const auto sample = [&](unsigned k) {
        const CoreStats cs = cores_[k]->stats();
        obs::Readings r =
            l1iReadings(policies_[k], *l1is_[k],
                        hier_.l1i.sizeBytes, cs.cycles, coh != nullptr);
        r["cycles"] = static_cast<double>(cs.cycles);
        r["l2_accesses"] = static_cast<double>(bus_->accesses(k));
        r["l2_misses"] = static_cast<double>(bus_->misses(k));
        if (coh)
            r["coherence_invalidations"] = static_cast<double>(
                coh->coreStats(k).invalidationsReceived);
        samplers[k].sample(cs.instructions, std::move(r));
    };

    while (true) {
        bool pending = false;
        bool progressed = false;
        InstCount roundRetired = 0;

        for (unsigned k = 0; k < n; ++k) {
            if (remaining[k] == 0)
                continue;
            if (cores_[k]->drained()) {
                remaining[k] = 0;
                continue;
            }
            const InstCount turn =
                (n == 1 || cmp_.quantum == 0)
                    ? remaining[k]
                    : std::min(cmp_.quantum, remaining[k]);
            const InstCount before =
                cores_[k]->stats().instructions;
            cores_[k]->run(*gens_[k], turn);
            const InstCount done =
                cores_[k]->stats().instructions - before;
            roundRetired += done;
            if (done > 0)
                progressed = true;
            remaining[k] -= std::min(done, remaining[k]);
            if (cores_[k]->drained())
                remaining[k] = 0;
            if (remaining[k] == 0)
                continue;
            pending = true;
            // A core that just finished waits for the tail pass: the
            // probes other cores send it until they finish belong in
            // its last sample.
            if (metrics &&
                cores_[k]->stats().instructions -
                        samplers[k].lastInstrs() >=
                    metrics->interval())
                sample(k);
        }

        // The shared resizable L2 belongs to no single core: its
        // sense interval counts instructions retired anywhere in
        // the system and its active-size integral runs on the
        // system clock (the slowest core's local time).
        if (ResizableCache *dri = shared_.driL2(); n > 1 && dri) {
            if (roundRetired > 0)
                dri->retireInstructions(roundRetired);
            Cycles clock = 0;
            for (unsigned k = 0; k < n; ++k)
                clock =
                    std::max(clock, cores_[k]->stats().cycles);
            if (clock > sysClock) {
                dri->integrateCycles(clock - sysClock);
                sysClock = clock;
            }
        }

        if (!pending)
            break;
        drisim_assert(progressed,
                      "CMP scheduler made no progress");
    }

    // Tail sample, after every core finished: whatever each core
    // committed since its last sample, and every probe that landed
    // on it since, still shows up in the series.
    if (metrics)
        for (unsigned k = 0; k < n; ++k)
            if (cores_[k]->stats().instructions >
                samplers[k].lastInstrs())
                sample(k);

    CmpRunOutput out;
    out.cores.resize(n);
    for (unsigned k = 0; k < n; ++k) {
        CmpCoreOutput &c = out.cores[k];
        const CoreStats cs = cores_[k]->stats();
        c.meas.cycles = cs.cycles;
        c.meas.instructions = cs.instructions;
        // DRI cores keep the paper's zero gated share.
        const LeakagePolicy *pol = policies_[k];
        const bool dri = pol && pol->kind() == PolicyKind::Dri;
        const PolicyActivity act = fillL1iOutputs(
            c, pol, *l1is_[k], hier_.l1i.sizeBytes, dri);
        c.ipc = cs.ipc();
        c.l1dMissRate = l1ds_[k]->missRate();
        c.l2Accesses = bus_->accesses(k);
        c.l2Misses = bus_->misses(k);
        c.l2ContentionEvents = bus_->contentionEvents(k);
        c.l2MissLatencyCycles = bus_->missLatency(k);
        if (coh) {
            const CoherenceController::CoreStats &ccs =
                coh->coreStats(k);
            c.coherenceInvalidationsReceived =
                ccs.invalidationsReceived;
            c.coherenceInvalidationsCaused =
                ccs.invalidationsCaused;
            c.coherenceDowngrades = ccs.downgradesReceived;
            c.coherenceWritebacks = ccs.coherenceWritebacks;
            c.coherenceMsgCycles = ccs.messageCycles;
            c.coherenceWakes = act.coherenceWakes;
            c.coherenceRefetches = act.coherenceRefetches;
        }

        out.systemCycles = std::max(out.systemCycles, cs.cycles);
        out.l2Accesses += c.l2Accesses;
        out.l2Misses += c.l2Misses;
        out.l2ContentionEvents += c.l2ContentionEvents;
        out.l2MissLatencyCycles += c.l2MissLatencyCycles;
        out.coherenceInvalidations +=
            c.coherenceInvalidationsReceived;
        out.coherenceDowngrades += c.coherenceDowngrades;
        out.coherenceWritebacks += c.coherenceWritebacks;
        out.coherenceMsgCycles += c.coherenceMsgCycles;

        // MSHR activity over this core's private levels: the L1D and
        // a conventional or DRI L1I (the other policies keep theirs
        // in their own stat groups).
        addMshrs(out, *l1ds_[k]);
        if (!pol || dri)
            addMshrs(out, *l1is_[k]);
    }
    out.l2MissRate =
        out.l2Accesses == 0
            ? 0.0
            : static_cast<double>(out.l2Misses) /
                  static_cast<double>(out.l2Accesses);
    shared_.fillSharedOutputs(out);
    addMshrs(out, shared_.l2());
    if (coh)
        out.directoryEvictions = coh->directory().capacityEvictions();
    if (const Dram *dram = shared_.dram()) {
        out.dramBankRowHits.resize(dram->params().banks);
        for (unsigned b = 0; b < dram->params().banks; ++b)
            out.dramBankRowHits[b] = dram->rowHitsForBank(b);
    }
    return out;
}

} // namespace drisim
