/*
 * A sampling profiler loaded with LD_PRELOAD; sigprof.py builds and drives it.
 *
 *     cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *     SIGPROF_DIR=DIR LD_PRELOAD=./sigprof.so COMMAND...
 *
 * A constructor arms ITIMER_PROF, which sends SIGPROF each time the process
 * has used another interval of CPU time (user + system, any thread). The
 * handler records the interrupted instruction pointer. At exit a destructor
 * disarms the timer and writes DIR/PID.txt: the executable mappings of
 * /proc/self/maps, then one sampled address per line, in hex. A process
 * killed by a signal writes nothing.
 *
 * The interval asked for is 1 ms, but the kernel checks CPU-time timers at
 * its scheduler tick, so samples arrive at most once per tick: on a host
 * with a 250 Hz tick, one per 4 ms of CPU time. sigprof.py reports the
 * interval it observed (CPU time over samples).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
#define INTERVAL_US 1000

static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sigprof_start(void)
{
    if (!getenv("SIGPROF_DIR"))
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct itimerval every = {
        .it_interval = {0, INTERVAL_US},
        .it_value = {0, INTERVAL_US},
    };
    armed = setitimer(ITIMER_PROF, &every, NULL) == 0;
}

__attribute__((destructor)) static void sigprof_stop(void)
{
    if (!armed)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    armed = 0;

    char path[4096];
    snprintf(path, sizeof path, "%s/%d.txt", getenv("SIGPROF_DIR"), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        char perms[8];
        while (fgets(line, sizeof line, maps))
            if (sscanf(line, "%*s %7s", perms) == 1 && strchr(perms, 'x'))
                fputs(line, out);
        fclose(maps);
    }
    unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    fprintf(out, "samples %lu\n", n);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
