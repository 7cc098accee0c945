/**
 * @file
 * Leakage-policy names, validation, the concrete-policy factory and
 * the L1I interval readings.
 */

#include "policy/leakage_policy.hh"

#include "core/dri_icache.hh"
#include "policy/decay_policy.hh"
#include "policy/drowsy_policy.hh"
#include "policy/static_ways.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Dri:        return "dri";
      case PolicyKind::Decay:      return "decay";
      case PolicyKind::Drowsy:     return "drowsy";
      case PolicyKind::StaticWays: return "ways";
    }
    return "?";
}

bool
parsePolicyKind(const std::string &text, PolicyKind &out)
{
    if (text == "dri")
        out = PolicyKind::Dri;
    else if (text == "decay")
        out = PolicyKind::Decay;
    else if (text == "drowsy")
        out = PolicyKind::Drowsy;
    else if (text == "ways")
        out = PolicyKind::StaticWays;
    else
        return false;
    return true;
}

void
PolicyConfig::validate() const
{
    dri.validate(); // geometry checks apply to every policy
    switch (kind) {
      case PolicyKind::Dri:
        break;
      case PolicyKind::Decay:
        if (decay.decayInterval == 0)
            drisim_fatal("decay interval must be positive");
        if (decay.counterLimit < 1)
            drisim_fatal("decay counter limit must be at least 1");
        break;
      case PolicyKind::Drowsy:
        if (drowsy.drowsyInterval == 0)
            drisim_fatal("drowsy interval must be positive");
        break;
      case PolicyKind::StaticWays:
        if (ways.activeWays < 1)
            drisim_fatal("static-ways must keep at least one way "
                         "powered (way 0 is never gated)");
        break;
    }
}

std::string
PolicyConfig::paramSummary() const
{
    switch (kind) {
      case PolicyKind::Dri:
        return strFormat(
            "sb=%s/mb=%llu", bytesToString(dri.sizeBoundBytes).c_str(),
            static_cast<unsigned long long>(dri.missBound));
      case PolicyKind::Decay:
        return strFormat(
            "interval=%llu/limit=%u",
            static_cast<unsigned long long>(decay.decayInterval),
            decay.counterLimit);
      case PolicyKind::Drowsy:
        return strFormat(
            "interval=%llu/wake=%llu",
            static_cast<unsigned long long>(drowsy.drowsyInterval),
            static_cast<unsigned long long>(drowsy.wakeLatency));
      case PolicyKind::StaticWays:
        return strFormat("active=%u/%u", ways.activeWays, dri.assoc);
    }
    return "?";
}

std::unique_ptr<LeakagePolicy>
makeLeakagePolicy(const PolicyConfig &config, MemoryLevel *below,
                  stats::StatGroup *parent)
{
    config.validate();
    switch (config.kind) {
      case PolicyKind::Dri:
        return std::make_unique<DriICache>(config.dri, below, parent);
      case PolicyKind::Decay:
        return std::make_unique<DecayCache>(config, below, parent);
      case PolicyKind::Drowsy:
        return std::make_unique<DrowsyCache>(config, below, parent);
      case PolicyKind::StaticWays:
        return std::make_unique<StaticWaysCache>(config, below,
                                                 parent);
    }
    drisim_panic("unreachable policy kind");
}

obs::Readings
l1iReadings(const LeakagePolicy *policy, const Cache &l1i, Cycles cycles,
            bool coherent)
{
    const double c = static_cast<double>(cycles);
    const double bytes = static_cast<double>(l1i.params().sizeBytes);
    obs::Readings r;
    r["l1i_accesses"] = static_cast<double>(l1i.accesses());
    r["l1i_misses"] = static_cast<double>(l1i.misses());
    if (!policy) {
        r["active_cycle_area"] = c;
        r["active_bytes"] = bytes;
        return r;
    }
    const PolicyActivity act = policy->activity();
    r["active_cycle_area"] = act.avgActiveFraction * c;
    r["resizes"] = static_cast<double>(act.resizes);
    if (coherent)
        r["coherence_refetches"] =
            static_cast<double>(act.coherenceRefetches);
    if (policy->kind() == PolicyKind::Dri) {
        // The powered sets' share of the array now: a power-of-two
        // fraction, so the product is the exact byte count.
        r["active_bytes"] = l1i.activeFraction() * bytes;
        return r;
    }
    r["l1i_size_bytes"] = bytes;
    r["drowsy_cycle_area"] = act.avgDrowsyFraction * c;
    r["wakes"] = static_cast<double>(act.wakeTransitions);
    r["wake_stall_cycles"] = static_cast<double>(act.wakeStallCycles);
    if (coherent)
        r["coherence_wakes"] = static_cast<double>(act.coherenceWakes);
    return r;
}

} // namespace drisim
