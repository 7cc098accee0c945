/**
 * @file
 * The Dri leakage policy: a thin adapter presenting the paper's DRI
 * i-cache (core/dri_icache.hh) through the LeakagePolicy interface.
 *
 * Deliberately zero-logic: the adapter owns a DriICache and forwards
 * the retire/cycle broadcast, stat reads and snapshots 1:1, so the
 * runner's DRI L1I, which runs through it, is byte-identical to a
 * hand-wired DriICache (locked by tests/policy_test.cc). The gated
 * sets are state-destroying; the activity report maps the cache's
 * average active fraction straight through, with no drowsy
 * component.
 */

#ifndef DRISIM_POLICY_DRI_POLICY_HH
#define DRISIM_POLICY_DRI_POLICY_HH

#include "core/dri_icache.hh"
#include "policy/leakage_policy.hh"

namespace drisim
{

/** DRI resizing behind the common policy interface. */
class DriPolicy : public LeakagePolicy
{
  public:
    DriPolicy(const PolicyConfig &config, MemoryLevel *below,
              stats::StatGroup *parent);

    PolicyKind kind() const override { return PolicyKind::Dri; }
    Cache *level() override { return &icache_; }

    void onRetire(InstCount n) override
    {
        icache_.retireInstructions(n);
    }
    void onCycles(Cycles delta) override
    {
        icache_.integrateCycles(delta);
    }

    std::uint64_t l1Accesses() const override
    {
        return icache_.accesses();
    }
    std::uint64_t l1Misses() const override
    {
        return icache_.misses();
    }

    PolicyActivity activity() const override;

    /** LeakagePolicy contract: forward 1:1 to the wrapped cache. */
    void checkpoint(sim::StateIO io) override;

    /** The wrapped cache (tests / flavour-aware reports). */
    DriICache &icache() { return icache_; }
    const DriICache &icache() const { return icache_; }

  private:
    DriICache icache_;
};

} // namespace drisim

#endif // DRISIM_POLICY_DRI_POLICY_HH
