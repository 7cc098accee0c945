/**
 * @file
 * Runs one command and records what it cost: wall seconds, user and
 * system CPU seconds, peak resident set (ru_maxrss, KiB) and the raw
 * wait status.
 *
 *   spawn_rusage REPORT_FILE COMMAND [ARG...]
 *
 * The benchmark starts every bench binary through this program rather
 * than straight from Python: a child's ru_maxrss includes the pages it
 * inherited at fork, so a child of the Python interpreter reports the
 * interpreter's resident set (about 14 MB) whenever its own is
 * smaller. Standard streams and the environment pass through.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: spawn_rusage REPORT_FILE COMMAND [ARG...]\n");
        return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror(argv[2]);
        _exit(127);
    }
    int status = 0;
    struct rusage ru {};
    if (wait4(pid, &status, 0, &ru) != pid) {
        std::perror("wait4");
        return 1;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    std::FILE *f = std::fopen(argv[1], "w");
    if (!f) {
        std::perror(argv[1]);
        return 1;
    }
    std::fprintf(f, "%.9f %.6f %.6f %ld %d\n", wall,
                 seconds(ru.ru_utime), seconds(ru.ru_stime),
                 ru.ru_maxrss, status);
    return std::fclose(f) == 0 ? 0 : 1;
}
