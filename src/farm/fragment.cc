/**
 * @file
 * Fragment serialization, parsing and the rename-atomic writer.
 */

#include "farm/fragment.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "sim/checkpoint.hh"
#include "util/file.hh"
#include "util/json.hh"

namespace drisim::farm
{

std::string
renderFragment(const Fragment &f)
{
    std::string out = "{\"format\":\"drisim-sweep-fragment\","
                      "\"version\":";
    out += std::to_string(f.schemaVersion);
    out += ",\n\"bench\":\"";
    out += jsonEscape(f.bench);
    out += "\",\"shard\":";
    out += std::to_string(f.shard.shard);
    out += ",\"of_shards\":";
    out += std::to_string(f.shard.ofShards);
    out += ",\n\"columns\":[";
    for (std::size_t i = 0; i < f.columns.size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += jsonEscape(f.columns[i]);
        out += '"';
    }
    out += "],\n\"plan\":[";
    for (std::size_t i = 0; i < f.plan.size(); ++i) {
        if (i)
            out += ',';
        out += "\n{\"index\":";
        out += std::to_string(f.plan[i].index);
        out += ",\"hash\":\"";
        out += jsonEscape(f.plan[i].hash);
        out += "\"}";
    }
    out += "],\n\"records\":[";
    for (std::size_t i = 0; i < f.records.size(); ++i) {
        const FragmentRecord &r = f.records[i];
        if (i)
            out += ',';
        out += "\n{\"index\":";
        out += std::to_string(r.index);
        out += ",\"hash\":\"";
        out += jsonEscape(r.hash);
        out += "\",\"config\":\"";
        out += jsonEscape(r.config);
        out += "\",\"wall_seconds\":\"";
        out += jsonEscape(r.wallSeconds);
        out += "\",\"rows\":[";
        for (std::size_t j = 0; j < r.rows.size(); ++j) {
            if (j)
                out += ',';
            out += '[';
            for (std::size_t c = 0; c < r.rows[j].size(); ++c) {
                if (c)
                    out += ',';
                out += '"';
                out += jsonEscape(r.rows[j][c]);
                out += '"';
            }
            out += ']';
        }
        out += "]}";
    }
    out += "],\n\"complete\":";
    out += f.complete ? "true" : "false";
    out += "}\n";
    return out;
}

bool
readFragment(const std::string &path, Fragment &out,
             std::string &error)
{
    std::string text;
    if (!readFile(path, text)) {
        error = "cannot read fragment '" + path + "'";
        return false;
    }

    Fragment f;
    f.sourcePath = path;
    JsonParser p{text};
    p.consume('{');
    if (!p.expectKey("format") ||
        p.parseString() != "drisim-sweep-fragment" || !p.ok) {
        error = "'" + path + "' is not a drisim sweep fragment";
        return false;
    }
    p.consume(',');
    if (!p.expectKey("version")) {
        error = "'" + path + "': missing version";
        return false;
    }
    f.schemaVersion = static_cast<unsigned>(p.parseUInt());
    p.consume(',');
    if (!p.expectKey("bench")) {
        error = "'" + path + "': missing bench";
        return false;
    }
    f.bench = p.parseString();
    p.consume(',');
    if (!p.expectKey("shard")) {
        error = "'" + path + "': missing shard";
        return false;
    }
    f.shard.shard = static_cast<unsigned>(p.parseUInt());
    p.consume(',');
    if (!p.expectKey("of_shards")) {
        error = "'" + path + "': missing of_shards";
        return false;
    }
    f.shard.ofShards = static_cast<unsigned>(p.parseUInt());
    p.consume(',');
    if (!p.expectKey("columns")) {
        error = "'" + path + "': missing columns";
        return false;
    }
    f.columns = p.parseStringArray();
    p.consume(',');
    if (!p.expectKey("plan")) {
        error = "'" + path + "': missing plan";
        return false;
    }
    p.consume('[');
    if (p.ok && !p.peek(']')) {
        do {
            FragmentPlanEntry e;
            p.consume('{');
            if (!p.expectKey("index"))
                break;
            e.index = p.parseUInt();
            p.consume(',');
            if (!p.expectKey("hash"))
                break;
            e.hash = p.parseString();
            p.consume('}');
            if (!p.ok)
                break;
            f.plan.push_back(std::move(e));
        } while (p.peek(',') && p.consume(','));
    }
    p.consume(']');
    p.consume(',');
    if (!p.expectKey("records")) {
        error = "'" + path + "': missing records";
        return false;
    }
    p.consume('[');
    if (p.ok && !p.peek(']')) {
        do {
            FragmentRecord r;
            p.consume('{');
            if (!p.expectKey("index"))
                break;
            r.index = p.parseUInt();
            p.consume(',');
            if (!p.expectKey("hash"))
                break;
            r.hash = p.parseString();
            p.consume(',');
            if (!p.expectKey("config"))
                break;
            r.config = p.parseString();
            p.consume(',');
            if (!p.expectKey("wall_seconds"))
                break;
            r.wallSeconds = p.parseString();
            p.consume(',');
            if (!p.expectKey("rows"))
                break;
            r.rows = p.parseStringArrayArray();
            p.consume('}');
            if (!p.ok)
                break;
            f.records.push_back(std::move(r));
        } while (p.peek(',') && p.consume(','));
    }
    p.consume(']');
    p.consume(',');
    if (!p.expectKey("complete")) {
        error = "'" + path + "': missing complete flag";
        return false;
    }
    f.complete = p.parseBool();
    p.consume('}');
    if (!p.ok) {
        error = "'" + path + "': malformed fragment";
        return false;
    }
    out = std::move(f);
    return true;
}

bool
writeFileAtomic(const std::string &path,
                const std::string &contents, std::string &error)
{
    const std::string tmp = path + ".tmp";
    std::string reason;
    switch (drisim::writeFileAtomic(path, contents, reason)) {
      case WriteStep::None:
        return true;
      case WriteStep::Open:
        error = "cannot write '" + tmp + "'";
        return false;
      case WriteStep::Write:
        error = "short write to '" + tmp + "'";
        return false;
      case WriteStep::Rename:
        error = "cannot rename '" + tmp + "' to '" + path + "': " + reason;
        return false;
    }
    return false;
}

FragmentWriter::FragmentWriter(std::string path, std::string bench,
                               ShardPlan shard,
                               std::vector<std::string> columns,
                               const std::vector<SweepUnit> &units)
    : path_(std::move(path))
{
    frag_.bench = std::move(bench);
    frag_.shard = shard;
    frag_.columns = std::move(columns);
    frag_.plan.reserve(units.size());
    for (std::size_t i = 0; i < units.size(); ++i)
        frag_.plan.push_back({i, units[i].hashHex});

    std::error_code ec;
    if (!std::filesystem::exists(path_, ec))
        return;

    Fragment old;
    std::string error;
    if (!readFragment(path_, old, error)) {
        std::fprintf(stderr,
                     "[farm] discarding stale fragment: %s\n",
                     error.c_str());
        return;
    }
    const bool samePlan =
        old.bench == frag_.bench && old.shard == frag_.shard &&
        old.columns == frag_.columns &&
        [&] {
            if (old.plan.size() != frag_.plan.size())
                return false;
            for (std::size_t i = 0; i < old.plan.size(); ++i)
                if (old.plan[i].index != frag_.plan[i].index ||
                    old.plan[i].hash != frag_.plan[i].hash)
                    return false;
            return true;
        }();
    if (!samePlan) {
        std::fprintf(stderr,
                     "[farm] fragment '%s' belongs to a different "
                     "sweep/shard; starting clean\n",
                     path_.c_str());
        return;
    }
    frag_.records = std::move(old.records);
    // Plan order, whatever order the killed run finished its units
    // in: a fragment's bytes depend only on which units it holds.
    std::stable_sort(frag_.records.begin(), frag_.records.end(),
                     [](const FragmentRecord &a,
                        const FragmentRecord &b) {
                         return a.index < b.index;
                     });
    resumed_ = frag_.records.size();
}

bool
FragmentWriter::hasRecord(std::uint64_t index) const
{
    for (const FragmentRecord &r : frag_.records)
        if (r.index == index)
            return true;
    return false;
}

void
FragmentWriter::addRecord(
    std::uint64_t index, const SweepUnit &unit,
    const std::vector<std::vector<std::string>> &rows,
    const std::string &wallSeconds)
{
    FragmentRecord r;
    r.index = index;
    r.hash = unit.hashHex;
    r.config = unit.config;
    if (!wallSeconds.empty())
        r.wallSeconds = wallSeconds;
    r.rows = rows;
    const auto at = std::upper_bound(
        frag_.records.begin(), frag_.records.end(), index,
        [](std::uint64_t i, const FragmentRecord &rec) {
            return i < rec.index;
        });
    frag_.records.insert(at, std::move(r));
    rewrite();
}

void
FragmentWriter::finalize()
{
    frag_.complete = true;
    rewrite();
}

void
FragmentWriter::rewrite()
{
    std::string error;
    if (!writeFileAtomic(path_, renderFragment(frag_), error))
        std::fprintf(stderr, "[farm] %s\n", error.c_str());
}

} // namespace drisim::farm
