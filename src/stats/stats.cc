/**
 * @file
 * Self-registering statistics tree and name = value dumping.
 */

#include "stats/stats.hh"

#include <algorithm>

#include "util/logging.hh"

namespace drisim::stats
{

Scalar::Scalar(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    drisim_assert(parent != nullptr, "stat '%s' needs a parent group",
                  name_.c_str());
    parent->addStat(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name_ << " " << value_ << " # " << desc_ << "\n";
}

StatGroup::StatGroup(std::string name) : name_(std::move(name)) {}

StatGroup::StatGroup(StatGroup *parent, std::string name)
    : name_(std::move(name)), parent_(parent)
{
    drisim_assert(parent != nullptr, "child group '%s' needs a parent",
                  name_.c_str());
    parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->removeChild(this);
}

void
StatGroup::addStat(Scalar *stat)
{
    stats_.push_back(stat);
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::removeChild(StatGroup *child)
{
    children_.erase(std::remove(children_.begin(), children_.end(), child),
                    children_.end());
}

void
StatGroup::resetAll()
{
    for (auto *s : stats_)
        s->reset();
    for (auto *c : children_)
        c->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const auto *s : stats_)
        s->print(os, full);
    for (const auto *c : children_)
        c->dump(os, full);
}

} // namespace drisim::stats
