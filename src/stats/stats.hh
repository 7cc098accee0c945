/**
 * @file
 * A compact SimpleScalar/gem5-style statistics package.
 *
 * Stats self-register with a StatGroup; groups form a tree rooted at
 * a simulation component, and the whole tree can be dumped as
 * name = value lines and walked by a checkpoint in registration
 * order. Every simulator module exposes its counters through this
 * package as Scalars, the one stat kind components register.
 */

#ifndef DRISIM_STATS_STATS_HH
#define DRISIM_STATS_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim::stats
{

class StatGroup;

/**
 * A named, described, monotonically growing (or adjustable) 64-bit
 * event counter: the one stat kind. It registers with its group on
 * construction.
 */
class Scalar
{
  public:
    Scalar(StatGroup *parent, std::string name, std::string desc);

    Scalar(const Scalar &) = delete;
    Scalar &operator=(const Scalar &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void set(std::uint64_t v) { value_ = v; }

    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

    /** Print a "name value # desc" line, prefixed with @p prefix. */
    void print(std::ostream &os, const std::string &prefix) const;

    /** Serialize the current value (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/**
 * A named collection of statistics and child groups. Components
 * (caches, cores) own a StatGroup and declare members against it.
 */
class StatGroup
{
  public:
    /** Root group (no parent). */
    explicit StatGroup(std::string name);

    /** Child group; registers with @p parent. */
    StatGroup(StatGroup *parent, std::string name);

    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    /** Reset this group's stats and all descendants. */
    void resetAll();

    /** Dump "prefix.name value # desc" for the whole subtree. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Serialize every stat in this subtree, in registration order,
     * inside a section named after the group. Restoring requires an
     * identically-shaped tree (same component construction order) —
     * any drift trips a CheckpointError.
     */
    void checkpoint(sim::StateIO io);

  private:
    friend class Scalar;
    void addStat(Scalar *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    std::string name_;
    StatGroup *parent_ = nullptr;
    std::vector<Scalar *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace drisim::stats

#endif // DRISIM_STATS_STATS_HH
