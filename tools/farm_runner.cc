/**
 * @file
 * Multi-process sweep-farm driver (docs/REPRODUCTION.md, Farm
 * mode): spawns N shard processes of one bench binary, each with
 * `--shard k/N --part DIR/shard_k.part.json`, and waits for them.
 * Shards stream completed units into their fragments record-at-a-
 * time (rename-atomic, farm/fragment.hh), so a shard killed at any
 * instant loses at most its in-flight units; tools/sweep_merge joins
 * the fragments and emits a resume manifest for the holes.
 *
 *   farm_runner --bin PATH --shards N --dir DIR [--args "..."]
 *               [--trace] [--resume MANIFEST]
 *               [--kill-shard K [--kill-after-records M]]
 *
 *   --bin PATH       sweep binary (bench_figure4, bench_cmp, ...)
 *   --shards N       farm width (each child gets --shard k/N)
 *   --dir DIR        fragment/log directory (created if missing);
 *                    child k writes shard_k.part.json and logs to
 *                    shard_k.out / shard_k.err
 *   --args "..."     extra arguments passed through to every child,
 *                    split on whitespace (e.g. "--jobs 1
 *                    --result-cache DIR/cache.json")
 *   --trace          give each child --trace=DIR/shard_k.trace.json
 *                    (obs/trace.hh); sweep_merge --trace/--trace-out
 *                    joins the per-shard files into one trace
 *   --resume M       spawn only the shards a sweep_merge resume
 *                    manifest names as owning missing units; their
 *                    existing fragments are adopted, so completed
 *                    units are never recomputed
 *   --kill-shard K   fault injection for the CI farm leg: SIGKILL
 *                    child K once its fragment holds at least
 *                    --kill-after-records records (default 1) —
 *                    deterministic, because the hash partition is
 *
 * Exit codes: 0 every child exited 0 (an intentionally killed shard
 * is expected to die and doesn't fail the run), 2 usage/setup
 * error, 3 a child failed.
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "farm/fragment.hh"
#include "farm/merge.hh"
#include "util/parse.hh"

using namespace drisim;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --bin PATH --shards N --dir DIR [--args \"...\"]\n"
        "          [--trace] [--resume MANIFEST]\n"
        "          [--kill-shard K [--kill-after-records M]]\n",
        argv0);
    return 2;
}

/** Whitespace-split of the --args passthrough string. */
std::vector<std::string>
splitArgs(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ' ' || c == '\t' || c == '\n') {
            if (!cur.empty())
                out.push_back(std::move(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

struct Child
{
    unsigned shard = 0; ///< 1-based
    pid_t pid = -1;
    bool done = false;
    int status = 0;
    std::string partPath;
    /** Spawn time, for the exit summary's wall seconds. */
    std::chrono::steady_clock::time_point start;
};

/** Fork+exec one shard child with stdout/stderr redirected. */
bool
spawnShard(const std::string &bin,
           const std::vector<std::string> &passthrough,
           const std::string &dir, unsigned k, unsigned n,
           bool trace, Child &out)
{
    const std::string stem =
        dir + "/shard_" + std::to_string(k);
    out.shard = k;
    out.partPath = stem + ".part.json";
    out.start = std::chrono::steady_clock::now();

    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return false;
    }
    if (pid == 0) {
        const int fdOut = ::open((stem + ".out").c_str(),
                                 O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int fdErr = ::open((stem + ".err").c_str(),
                                 O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fdOut < 0 || fdErr < 0 || dup2(fdOut, 1) < 0 ||
            dup2(fdErr, 2) < 0)
            _exit(127);
        ::close(fdOut);
        ::close(fdErr);

        std::vector<std::string> args;
        args.push_back(bin);
        for (const std::string &a : passthrough)
            args.push_back(a);
        args.push_back("--shard=" + std::to_string(k) + "/" +
                       std::to_string(n));
        args.push_back("--part=" + out.partPath);
        if (trace)
            args.push_back("--trace=" + stem + ".trace.json");
        std::vector<char *> argvp;
        for (std::string &a : args)
            argvp.push_back(a.data());
        argvp.push_back(nullptr);
        execv(bin.c_str(), argvp.data());
        _exit(127);
    }
    out.pid = pid;
    std::fprintf(stderr, "[farm_runner] spawned shard %u/%u pid %d "
                         "(part %s)\n",
                 k, n, static_cast<int>(pid), out.partPath.c_str());
    return true;
}

/** Completed-record count of a shard's fragment (0 if absent);
 *  also reports the full plan size when asked. */
std::size_t
fragmentRecords(const std::string &path,
                std::size_t *planSize = nullptr)
{
    if (!std::filesystem::exists(path))
        return 0;
    farm::Fragment f;
    std::string err;
    if (!farm::readFragment(path, f, err))
        return 0;
    if (planSize)
        *planSize = f.plan.size();
    return f.records.size();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bin;
    std::string dir;
    std::string argsText;
    std::string resumePath;
    bool trace = false;
    std::uint64_t shards = 0;
    std::uint64_t killShard = 0;
    std::uint64_t killAfter = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](std::string &dst) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value after %s\n",
                             arg.c_str());
                return false;
            }
            dst = argv[++i];
            return true;
        };
        std::string value;
        if (arg == "--bin") {
            if (!next(bin))
                return usage(argv[0]);
        } else if (arg == "--dir") {
            if (!next(dir))
                return usage(argv[0]);
        } else if (arg == "--args") {
            if (!next(argsText))
                return usage(argv[0]);
        } else if (arg == "--resume") {
            if (!next(resumePath))
                return usage(argv[0]);
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--shards") {
            if (!next(value) ||
                !parsePositiveValue(value, shards, farm::kMaxShards)) {
                std::fprintf(stderr, "bad --shards value '%s'\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--kill-shard") {
            if (!next(value) ||
                !parsePositiveValue(value, killShard,
                                    farm::kMaxShards)) {
                std::fprintf(stderr, "bad --kill-shard value '%s'\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--kill-after-records") {
            if (!next(value) ||
                !parsePositiveValue(value, killAfter, 1000000)) {
                std::fprintf(stderr,
                             "bad --kill-after-records value '%s'\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }
    if (bin.empty() || dir.empty())
        return usage(argv[0]);

    // Resolve the shard set: all of 1..N, or only the shards the
    // resume manifest blames for missing units.
    std::vector<unsigned> toRun;
    if (!resumePath.empty()) {
        farm::ResumeManifest manifest;
        std::string err;
        if (!farm::parseResumeManifest(resumePath, manifest, err)) {
            std::fprintf(stderr, "farm_runner: %s\n", err.c_str());
            return 2;
        }
        if (shards != 0 && shards != manifest.ofShards) {
            std::fprintf(stderr,
                         "farm_runner: --shards %llu contradicts "
                         "manifest of_shards %u\n",
                         static_cast<unsigned long long>(shards),
                         manifest.ofShards);
            return 2;
        }
        shards = manifest.ofShards;
        toRun = manifest.shards();
        std::fprintf(stderr,
                     "[farm_runner] resume: %zu missing unit%s, "
                     "re-running shard%s of %llu:",
                     manifest.missing.size(),
                     manifest.missing.size() == 1 ? "" : "s",
                     toRun.size() == 1 ? "" : "s",
                     static_cast<unsigned long long>(shards));
        for (unsigned k : toRun)
            std::fprintf(stderr, " %u", k);
        std::fprintf(stderr, "\n");
    } else {
        if (shards == 0) {
            std::fprintf(stderr,
                         "farm_runner: --shards N is required "
                         "(unless --resume)\n");
            return usage(argv[0]);
        }
        for (unsigned k = 1; k <= shards; ++k)
            toRun.push_back(k);
    }
    if (killShard > shards) {
        std::fprintf(stderr,
                     "farm_runner: --kill-shard %llu > --shards "
                     "%llu\n",
                     static_cast<unsigned long long>(killShard),
                     static_cast<unsigned long long>(shards));
        return 2;
    }

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "farm_runner: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        return 2;
    }

    const std::vector<std::string> passthrough = splitArgs(argsText);
    std::vector<Child> children;
    children.reserve(toRun.size());
    for (unsigned k : toRun) {
        Child c;
        if (!spawnShard(bin, passthrough, dir, k,
                        static_cast<unsigned>(shards), trace, c))
            return 2;
        children.push_back(c);
    }

    bool killed = false;
    bool failed = false;
    std::size_t running = children.size();
    const auto farmStart = std::chrono::steady_clock::now();
    auto lastBeat = farmStart;
    while (running > 0) {
        for (Child &c : children) {
            if (c.done)
                continue;
            int status = 0;
            const pid_t r = waitpid(c.pid, &status, WNOHANG);
            if (r == c.pid) {
                c.done = true;
                c.status = status;
                --running;
                const double wall =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - c.start)
                        .count();
                const std::size_t units =
                    fragmentRecords(c.partPath);
                const bool wasKill =
                    killed && c.shard == killShard &&
                    WIFSIGNALED(status) &&
                    WTERMSIG(status) == SIGKILL;
                if (wasKill) {
                    std::fprintf(stderr,
                                 "[farm_runner] shard %u killed as "
                                 "requested (fragment keeps its "
                                 "completed units)\n",
                                 c.shard);
                } else if (WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0) {
                    std::fprintf(
                        stderr,
                        "[farm_runner] shard %u finished: %zu "
                        "unit%s in %.1fs (exit 0)\n",
                        c.shard, units, units == 1 ? "" : "s",
                        wall);
                } else {
                    failed = true;
                    std::fprintf(
                        stderr,
                        "[farm_runner] shard %u FAILED (%s %d) "
                        "after %zu unit%s in %.1fs; "
                        "see %s/shard_%u.err\n",
                        c.shard,
                        WIFSIGNALED(status) ? "signal" : "exit",
                        WIFSIGNALED(status) ? WTERMSIG(status)
                                            : WEXITSTATUS(status),
                        units, units == 1 ? "" : "s", wall,
                        dir.c_str(), c.shard);
                }
            }
        }
        // Heartbeat: every ~2s, total progress across shards plus a
        // crude ETA (elapsed scaled by remaining/done). Plan size
        // comes from any readable fragment — every shard's fragment
        // carries the full plan.
        const auto now = std::chrono::steady_clock::now();
        if (running > 0 && now - lastBeat >=
                               std::chrono::milliseconds(2000)) {
            lastBeat = now;
            std::size_t done = 0;
            std::size_t plan = 0;
            for (const Child &c : children) {
                std::size_t p = 0;
                done += fragmentRecords(c.partPath, &p);
                if (p > plan)
                    plan = p;
            }
            const double elapsed =
                std::chrono::duration<double>(now - farmStart)
                    .count();
            std::string eta = "?";
            if (done > 0 && plan >= done)
                eta = std::to_string(static_cast<long>(
                    elapsed * static_cast<double>(plan - done) /
                    static_cast<double>(done)));
            std::fprintf(stderr,
                         "[farm_runner] progress: %zu/%zu units, "
                         "%zu shard%s running, ~%ss left\n",
                         done, plan, running,
                         running == 1 ? "" : "s", eta.c_str());
        }
        // Fault injection: once the victim's fragment shows enough
        // completed records, SIGKILL it mid-sweep. Polling the
        // fragment (not a timer) keeps the test deterministic.
        if (killShard != 0 && !killed) {
            for (Child &c : children) {
                if (c.shard != killShard || c.done)
                    continue;
                if (fragmentRecords(c.partPath) >=
                    static_cast<std::size_t>(killAfter)) {
                    std::fprintf(
                        stderr,
                        "[farm_runner] killing shard %u (pid %d) "
                        "after %zu completed record(s)\n",
                        c.shard, static_cast<int>(c.pid),
                        fragmentRecords(c.partPath));
                    ::kill(c.pid, SIGKILL);
                    killed = true;
                }
            }
        }
        if (running > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }

    if (killShard != 0 && !killed) {
        // The victim finished before reaching the record threshold:
        // the fault was never injected, so the "resume" the caller
        // is about to test would be vacuous. Fail loudly.
        std::fprintf(stderr,
                     "farm_runner: --kill-shard %llu never reached "
                     "%llu completed record(s); kill not injected\n",
                     static_cast<unsigned long long>(killShard),
                     static_cast<unsigned long long>(killAfter));
        return 3;
    }
    return failed ? 3 : 0;
}
