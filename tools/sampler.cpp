// Sampling CPU profiler for hosts without perf: a shared library loaded with
// LD_PRELOAD that samples call stacks on SIGPROF and writes them out at exit.
//
//   export MONOCLE_PROF_OUT=prof.txt
//   LD_PRELOAD=build/libmonocle_sampler.so ./prog args...
//   python3 tools/prof_report.py prof.txt
//
// MONOCLE_PROF_OUT names the output file; unset, the sampler stays off.
//
// A CLOCK_MONOTONIC timer raises SIGPROF, on average 1,000 times per second
// of wall time: each signal re-arms it at a random point between half and
// one and a half periods ahead.  Samples
// therefore fall uniformly in wall time and cannot lock onto work that
// repeats at a fixed period.  A CPU-time itimer would: it fires only on
// scheduler ticks, so a short task run every 50 ms meets the tick at the
// same phase in every period and is sampled always or never.  The signal
// goes to the process, so in a multi-threaded program most samples land
// on the main thread, and a blocked thread is sampled in its system call.
//
// The handler copies backtrace() into a buffer mapped once at load; it
// never allocates, and a full buffer counts the sample as dropped.  At exit
// the file receives a header line, a copy of /proc/self/maps (for
// symbolizing position-independent code) and one line of hex return
// addresses per sample, innermost first, starting at the interrupted
// frame.  Build the profiled program with -g so that prof_report.py can
// name functions, files and lines.
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kHz = 1000;
constexpr long kPeriodNs = 1000000000L / kHz;
constexpr std::size_t kMaxSamples = 1 << 17;
constexpr int kMaxDepth = 48;
// The handler's own frame and the signal trampoline precede the
// interrupted one.
constexpr int kSkippedFrames = 2;

struct Sample {
  int depth;
  void* frames[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};
const char* g_out = nullptr;
timer_t g_timer{};
// One signal is pending at a time (each handler arms the next), so only
// one handler ever touches the generator.
std::uint64_t g_rng = 0x9E3779B97F4A7C15ull;

void arm_next_sample() {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  const long ns = kPeriodNs / 2 +
                  static_cast<long>(g_rng % static_cast<std::uint64_t>(kPeriodNs));
  itimerspec next{};
  next.it_value.tv_sec = ns / 1000000000L;
  next.it_value.tv_nsec = ns % 1000000000L;
  timer_settime(g_timer, 0, &next, nullptr);  // async-signal-safe
}

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    Sample& s = g_samples[slot];
    s.depth = backtrace(s.frames, kMaxDepth);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  arm_next_sample();
  errno = saved_errno;
}

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = write(fd, data, len);
    if (n <= 0) return;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

__attribute__((constructor)) void start_sampler() {
  g_out = std::getenv("MONOCLE_PROF_OUT");
  if (g_out == nullptr || g_out[0] == '\0') return;
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  // backtrace() loads its unwinder on first use; do that here, not inside
  // the signal handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    g_samples = nullptr;  // nothing to dump
    return;
  }
  arm_next_sample();
}

__attribute__((destructor)) void dump_samples() {
  if (g_samples == nullptr) return;
  signal(SIGPROF, SIG_IGN);
  timer_delete(g_timer);
  const int fd = open(g_out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const std::size_t taken = g_next.load();
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  char line[64 + kMaxDepth * 20];
  int n = std::snprintf(line, sizeof(line),
                        "# monocle-sampler hz=%ld samples=%zu dropped=%zu\n",
                        kHz, kept, g_dropped.load());
  write_all(fd, line, static_cast<std::size_t>(n));
  write_all(fd, "# maps\n", 7);
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[4096];
    ssize_t got;
    while ((got = read(maps, buf, sizeof(buf))) > 0) {
      write_all(fd, buf, static_cast<std::size_t>(got));
    }
    close(maps);
  }
  write_all(fd, "# samples\n", 10);
  for (std::size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    n = 0;
    for (int f = kSkippedFrames; f < s.depth; ++f) {
      n += std::snprintf(line + n, sizeof(line) - static_cast<std::size_t>(n),
                         f == kSkippedFrames ? "%lx" : " %lx",
                         reinterpret_cast<unsigned long>(s.frames[f]));
    }
    line[n++] = '\n';
    write_all(fd, line, static_cast<std::size_t>(n));
  }
  close(fd);
}

}  // namespace
