/**
 * @file
 * Fragment merging, the shared BENCH json serializer and the resume
 * manifest.
 */

#include "farm/merge.hh"

#include <algorithm>
#include <map>
#include <set>

#include "sim/checkpoint.hh"
#include "util/file.hh"
#include "util/json.hh"
#include "util/str.hh"

namespace drisim::farm
{

namespace
{

bool
samePlan(const Fragment &a, const Fragment &b)
{
    if (a.plan.size() != b.plan.size())
        return false;
    for (std::size_t i = 0; i < a.plan.size(); ++i)
        if (a.plan[i].index != b.plan[i].index ||
            a.plan[i].hash != b.plan[i].hash)
            return false;
    return true;
}

} // namespace

bool
mergeFragments(const std::vector<std::string> &paths,
               MergeResult &out, std::string &error)
{
    if (paths.empty()) {
        error = "no fragments to merge";
        return false;
    }

    std::vector<Fragment> frags;
    frags.reserve(paths.size());
    for (const std::string &p : paths) {
        Fragment f;
        if (!readFragment(p, f, error))
            return false;
        frags.push_back(std::move(f));
    }

    const Fragment &first = frags.front();
    for (const Fragment &f : frags) {
        if (f.bench != first.bench) {
            error = "fragment '" + f.sourcePath + "' is from bench '" +
                    f.bench + "', expected '" + first.bench + "'";
            return false;
        }
        if (f.columns != first.columns) {
            error = "fragment '" + f.sourcePath +
                    "' has a different column set";
            return false;
        }
        if (f.shard.ofShards != first.shard.ofShards) {
            error = "fragment '" + f.sourcePath + "' is from a " +
                    std::to_string(f.shard.ofShards) +
                    "-shard plan, expected " +
                    std::to_string(first.shard.ofShards);
            return false;
        }
        if (!samePlan(f, first)) {
            error = "fragment '" + f.sourcePath +
                    "' was planned over a different unit set";
            return false;
        }
    }

    // Plan lookup: index -> expected hash.
    std::map<std::uint64_t, std::string> planHash;
    for (const FragmentPlanEntry &e : first.plan)
        planHash[e.index] = e.hash;

    // Join records across fragments, result-cache dedup rule: same
    // hash + same config + same rows = exact duplicate (dropped);
    // same hash + anything else differing = refuse.
    std::map<std::uint64_t, const FragmentRecord *> byIndex;
    std::map<std::string, const FragmentRecord *> byHash;
    out = MergeResult{};
    for (const Fragment &f : frags) {
        for (const FragmentRecord &r : f.records) {
            const auto plan = planHash.find(r.index);
            if (plan == planHash.end()) {
                error = "fragment '" + f.sourcePath +
                        "' records unit " + std::to_string(r.index) +
                        ", which is not in the plan";
                return false;
            }
            if (plan->second != r.hash) {
                error = "fragment '" + f.sourcePath + "' unit " +
                        std::to_string(r.index) + " hash " + r.hash +
                        " contradicts the plan (" + plan->second +
                        ")";
                return false;
            }
            const auto dup = byHash.find(r.hash);
            if (dup != byHash.end()) {
                if (dup->second->config != r.config) {
                    error = "hash collision on " + r.hash +
                            ": configs differ ('" +
                            dup->second->config + "' vs '" +
                            r.config + "')";
                    return false;
                }
                if (dup->second->rows != r.rows) {
                    error = "conflicting duplicate for unit " +
                            std::to_string(r.index) + " (hash " +
                            r.hash + "): rows differ";
                    return false;
                }
                ++out.duplicates;
                continue;
            }
            byHash[r.hash] = &r;
            byIndex[r.index] = &r;
        }
    }

    out.bench = first.bench;
    out.ofShards = first.shard.ofShards;
    out.columns = first.columns;
    for (const FragmentPlanEntry &e : first.plan) {
        const auto it = byIndex.find(e.index);
        if (it == byIndex.end()) {
            MissingUnit m;
            m.index = e.index;
            m.hash = e.hash;
            m.shard = static_cast<unsigned>(
                          sim::fromHex64(e.hash) %
                          std::max(1u, first.shard.ofShards)) +
                      1;
            out.missing.push_back(std::move(m));
            continue;
        }
        for (const std::vector<std::string> &row : it->second->rows)
            out.rows.push_back(row);
    }
    return true;
}

std::string
renderBenchJson(const std::string &benchName, const ShardPlan &shard,
                double wallSeconds, unsigned workers,
                const std::vector<std::string> &columns,
                const std::vector<std::vector<std::string>> &rows)
{
    // 1-based shard provenance; 0/0 marks an unsharded (or merged)
    // report, so a complete merge reproduces the unsharded document
    // byte for byte.
    const unsigned shardNo =
        shard.active() ? shard.shard + 1 : 0;
    const unsigned ofShards = shard.active() ? shard.ofShards : 0;

    std::string out =
        strFormat("{\n  \"bench\": \"%s\",\n",
                  jsonEscape(benchName).c_str());
    out += "  \"schema_version\": 2,\n";
    out += strFormat("  \"shard\": %u,\n", shardNo);
    out += strFormat("  \"of_shards\": %u,\n", ofShards);
    out += strFormat("  \"wall_seconds\": %.3f,\n", wallSeconds);
    out += strFormat("  \"workers\": %u,\n", workers);
    out += "  \"columns\": [";
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += jsonEscape(columns[i]);
        out += '"';
    }
    out += "],\n  \"winners\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out += "    {";
        const std::size_t n =
            std::min(columns.size(), rows[r].size());
        for (std::size_t i = 0; i < n; ++i) {
            if (i)
                out += ", ";
            out += '"';
            out += jsonEscape(columns[i]);
            out += "\": \"";
            out += jsonEscape(rows[r][i]);
            out += '"';
        }
        out += '}';
        if (r + 1 < rows.size())
            out += ',';
        out += '\n';
    }
    out += "  ]\n}\n";
    return out;
}

std::string
renderResumeManifest(const std::string &bench, unsigned ofShards,
                     const std::vector<MissingUnit> &missing)
{
    std::string out = "{\"format\":\"drisim-resume-manifest\","
                      "\"version\":1,\n\"bench\":\"";
    out += jsonEscape(bench);
    out += "\",\"of_shards\":";
    out += std::to_string(ofShards);
    out += ",\n\"missing\":[";
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i)
            out += ',';
        out += "\n{\"index\":";
        out += std::to_string(missing[i].index);
        out += ",\"hash\":\"";
        out += jsonEscape(missing[i].hash);
        out += "\",\"shard\":";
        out += std::to_string(missing[i].shard);
        out += '}';
    }
    out += "]}\n";
    return out;
}

std::vector<unsigned>
ResumeManifest::shards() const
{
    std::set<unsigned> s;
    for (const MissingUnit &m : missing)
        s.insert(m.shard);
    return {s.begin(), s.end()};
}

bool
parseResumeManifest(const std::string &path, ResumeManifest &out,
                    std::string &error)
{
    std::string text;
    if (!readFile(path, text)) {
        error = "cannot read manifest '" + path + "'";
        return false;
    }

    ResumeManifest m;
    JsonParser p{text};
    p.consume('{');
    if (!p.expectKey("format") ||
        p.parseString() != "drisim-resume-manifest" || !p.ok) {
        error = "'" + path + "' is not a drisim resume manifest";
        return false;
    }
    p.consume(',');
    p.expectKey("version");
    p.parseUInt();
    p.consume(',');
    p.expectKey("bench");
    m.bench = p.parseString();
    p.consume(',');
    p.expectKey("of_shards");
    m.ofShards = static_cast<unsigned>(p.parseUInt());
    p.consume(',');
    p.expectKey("missing");
    p.consume('[');
    if (p.ok && !p.peek(']')) {
        do {
            MissingUnit u;
            p.consume('{');
            if (!p.expectKey("index"))
                break;
            u.index = p.parseUInt();
            p.consume(',');
            if (!p.expectKey("hash"))
                break;
            u.hash = p.parseString();
            p.consume(',');
            if (!p.expectKey("shard"))
                break;
            u.shard = static_cast<unsigned>(p.parseUInt());
            p.consume('}');
            if (!p.ok)
                break;
            m.missing.push_back(std::move(u));
        } while (p.peek(',') && p.consume(','));
    }
    p.consume(']');
    p.consume('}');
    if (!p.ok) {
        error = "'" + path + "': malformed resume manifest";
        return false;
    }
    out = std::move(m);
    return true;
}

} // namespace drisim::farm
