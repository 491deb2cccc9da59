#include "obs/profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <ucontext.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <unordered_map>

#include "common/log.hpp"

namespace oda::obs {

// ------------------------------------------------------------------ ring

/// Per-thread sample ring. All-atomic slots under the FlightRecorder
/// seqlock protocol (obs/recorder.cpp documents the fence-free formulation
/// and why TSan requires it); the writer is the SIGPROF handler running on
/// the ring's own thread, readers are samples()/folded().
struct SamplingProfiler::Ring {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint32_t> depth{0};
    std::array<std::atomic<std::uintptr_t>, kMaxProfFrames> pcs{};
  };

  explicit Ring(std::size_t capacity) : slots(capacity) {}

  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> sampled{0};
  std::atomic<std::uint64_t> truncated{0};
  std::uint32_t max_frames = kMaxProfFrames;
  const char* role = "";
  std::uint64_t tid = 0;
  const char* stack_lo = nullptr;
  const char* stack_hi = nullptr;
};

namespace {

/// Handlers in flight. Paired with detail::g_profiler_active in a seq_cst
/// handshake (see stop()): a handler either observes active == false after
/// publishing its increment and backs out, or stop() observes the
/// increment and waits — so after quiescence no handler can touch a ring.
std::atomic<std::uint64_t> g_handlers_inflight{0};

/// The instance whose rings are attached (one active profiler at a time).
std::atomic<SamplingProfiler*> g_active_profiler{nullptr};

std::uint64_t monotonic_us() noexcept {
  // clock_gettime is async-signal-safe (POSIX); steady_clock is the same
  // CLOCK_MONOTONIC on this platform, so timestamps line up with traces.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

/// Frame-pointer walk + seqlock publish. Runs in signal context: only the
/// interrupted thread's own stack, the pre-allocated ring, and atomics.
void sample_into(SamplingProfiler::Ring& ring, void* uctx) noexcept {
  std::uintptr_t pcs[kMaxProfFrames];
  std::uint32_t depth = 0;
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uctx;
  pc = reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
#endif
  if (pc == 0) return;
  pcs[depth++] = pc;

#if defined(__SANITIZE_ADDRESS__)
  // Under ASan, chasing saved frame pointers would read through stack
  // redzones and fake frames; keep leaf-only samples there.
  fp = 0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  fp = 0;
#endif
#endif
  // Bounds are checked on integers without adding to `fp`: it may hold any
  // value (code built without frame pointers, libc included, uses rbp as a
  // scratch register), and `fp + 16` wraps past `hi` for fp near the top
  // of the address space.
  const auto lo = reinterpret_cast<std::uintptr_t>(ring.stack_lo);
  const auto hi = reinterpret_cast<std::uintptr_t>(ring.stack_hi);
  bool bad_walk = false;
  if (lo != 0 && hi > lo && hi - lo >= 2 * sizeof(void*)) {
    while (depth < ring.max_frames && fp != 0) {
      if (fp % alignof(void*) != 0) {
        bad_walk = depth == 1;
        break;
      }
      if (fp < lo || fp > hi - 2 * sizeof(void*)) {
        bad_walk = depth == 1;
        break;
      }
      // [fp] = caller's fp, [fp+8] = return address (fp-chain ABI layout,
      // valid because the tree builds with -fno-omit-frame-pointer).
      const std::uintptr_t next_fp =
          *reinterpret_cast<const std::uintptr_t*>(fp);
      const std::uintptr_t ret =
          *reinterpret_cast<const std::uintptr_t*>(fp + sizeof(void*));
      if (ret == 0) break;
      pcs[depth++] = ret;
      // The chain must move strictly up the stack with a sane stride, or
      // we are following garbage (a frame built without fp, a signal
      // trampoline, ...). Stop rather than wander.
      if (next_fp <= fp || next_fp - fp > (1u << 20)) break;
      fp = next_fp;
    }
  }
  const bool truncated = depth == ring.max_frames || bad_walk;

  // Seqlock write (protocol + memory-order rationale: obs/recorder.cpp).
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  auto& slot = ring.slots[h & (ring.slots.size() - 1)];
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  slot.ts_us.store(monotonic_us(), std::memory_order_release);
  slot.depth.store(depth, std::memory_order_release);
  for (std::uint32_t i = 0; i < depth; ++i) {
    slot.pcs[i].store(pcs[i], std::memory_order_release);
  }
  slot.seq.store(2 * h + 2, std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
  // relaxed (both): statistics counters.
  ring.sampled.fetch_add(1, std::memory_order_relaxed);
  if (truncated) ring.truncated.fetch_add(1, std::memory_order_relaxed);
}

void profiler_signal_handler(int /*sig*/, siginfo_t* /*info*/, void* uctx) {
  // Cheap bail-out for stray signals after stop. The handler stays
  // installed for the process lifetime: restoring the default disposition
  // would turn one in-flight SIGPROF into process death.
  if (!detail::g_profiler_active.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  // seq_cst RMW + seq_cst re-load vs. stop()'s seq_cst store-then-load:
  // the Dekker pattern guaranteeing either this handler sees active ==
  // false and backs out, or stop() sees the in-flight count and waits.
  g_handlers_inflight.fetch_add(1, std::memory_order_seq_cst);
  if (detail::g_profiler_active.load(std::memory_order_seq_cst)) {
    if (WatchedThread* rec = current_watched_thread()) {
      // acquire: pairs with the release store in attach(); the ring's
      // initialization is visible.
      if (auto* ring = static_cast<SamplingProfiler::Ring*>(
              rec->profiler_data.load(std::memory_order_acquire))) {
        sample_into(*ring, uctx);
      }
    }
  }
  // release: ring writes above happen-before stop()'s quiescence read.
  g_handlers_inflight.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

void install_signal_handler_once() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &profiler_signal_handler;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  if (!installed) {
    ODA_LOG_WARN << "profiler: failed to install SIGPROF handler";
  }
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Folded format: ';' separates frames and the last ' ' separates the
/// count — neither may appear inside a frame name.
void sanitize_frame_name(std::string& name) {
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
}

/// Best-effort pc -> name, outside signal context. Return addresses point
/// one past the call site, so callers pass pc-1 for non-leaf frames.
/// Fallback ladder: demangled dynamic symbol -> module+offset (file-local
/// functions are absent from .dynsym even with -rdynamic) -> raw hex.
std::string symbolize_pc(std::uintptr_t pc) {
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      std::string name =
          status == 0 && demangled != nullptr ? demangled : info.dli_sname;
      std::free(demangled);
      sanitize_frame_name(name);
      return name;
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      const char* base = std::strrchr(info.dli_fname, '/');
      std::string name = base != nullptr ? base + 1 : info.dli_fname;
      char off[2 + 2 + sizeof(std::uintptr_t) * 2 + 1];
      std::snprintf(off, sizeof(off), "+0x%zx",
                    static_cast<std::size_t>(
                        pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
      name += off;
      sanitize_frame_name(name);
      return name;
    }
  }
  char buf[2 + sizeof(std::uintptr_t) * 2 + 1];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<std::size_t>(pc));
  return buf;
}

}  // namespace

// ------------------------------------------------------------ lifecycle

SamplingProfiler& SamplingProfiler::global() {
  static SamplingProfiler profiler;
  return profiler;
}

SamplingProfiler::~SamplingProfiler() { stop(); }

bool SamplingProfiler::running() const {
  return g_active_profiler.load(std::memory_order_relaxed) == this &&
         active();
}

void SamplingProfiler::attach(WatchedThread& rec) {
  // Runs under the registry lock (start() sweep or registration hook);
  // rings_mu_ nests inside it by design, lifecycle_mu_ is never taken
  // here. The instance's options were published by the release store of
  // g_active_profiler in start() — plain reads are race-free after the
  // trampoline's acquire load (the sweep path is the same thread).
  if (rec.profiler_data.load(std::memory_order_relaxed) != nullptr) return;
  auto ring = std::make_shared<Ring>(ring_capacity_);
  ring->max_frames = ring_max_frames_;
  ring->role = rec.role;
  ring->tid = rec.os_tid;
  ring->stack_lo = rec.stack_lo;
  ring->stack_hi = rec.stack_hi;
  {
    MutexLock lock(rings_mu_);
    rings_.push_back(ring);
  }
  // release: publishes the fully initialized ring to the handler's acquire
  // load on this thread.
  rec.profiler_data.store(ring.get(), std::memory_order_release);
}

void SamplingProfiler::register_hook_trampoline(WatchedThread& rec) {
  // acquire: pairs with the release store in start(); ring_capacity_ /
  // ring_max_frames_ are visible before any hook-driven attach.
  if (SamplingProfiler* p = g_active_profiler.load(std::memory_order_acquire)) {
    p->attach(rec);
  }
}

bool SamplingProfiler::start(const ProfilerOptions& opts) {
  MutexLock lifecycle(lifecycle_mu_);
  if (running_) return false;
  SamplingProfiler* expected = nullptr;
  // acq_rel success / acquire failure: wins the one-active-profiler race;
  // the options are published by the release store below, after they are
  // written.
  // ODA-LINT-ALLOW(atomic-order): the orders are on the continuation lines.
  if (!g_active_profiler.compare_exchange_strong(expected, this,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
    ODA_LOG_WARN << "profiler: another instance is already active";
    return false;
  }
  opts_ = opts;
  ring_max_frames_ = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(opts_.max_frames, 1, kMaxProfFrames));
  ring_capacity_ = round_up_pow2(std::max<std::size_t>(opts_.ring_capacity, 2));
  opts_.interval_us = std::max<std::uint64_t>(opts_.interval_us, 100);
  {
    MutexLock lock(rings_mu_);
    rings_.clear();  // previous run's samples; safe — handlers quiesced
  }
  signals_.store(0, std::memory_order_relaxed);
  install_signal_handler_once();
  // release: publishes the ring options to hook-driven attach() calls.
  g_active_profiler.store(this, std::memory_order_release);
  ThreadWatchRegistry::global().set_register_hook(&register_hook_trampoline);
  // Attach rings to every thread alive right now. Lock order here is
  // lifecycle -> thread_watch -> rings; attach() never takes lifecycle_mu_.
  ThreadWatchRegistry::global().for_each(
      [this](WatchedThread& rec) { attach(rec); });
  // seq_cst: the handler side of the stop() handshake reads this; from
  // here on SIGPROFs take samples.
  detail::g_profiler_active.store(true, std::memory_order_seq_cst);
  stop_flag_.store(false, std::memory_order_relaxed);
  watcher_ = std::thread(
      [this, interval_us = opts_.interval_us] { watcher_loop(interval_us); });
  running_ = true;
  return true;
}

void SamplingProfiler::stop() {
  MutexLock lifecycle(lifecycle_mu_);
  if (!running_) return;
  // release: watcher_loop's acquire load sees the flag before its next
  // signalling sweep.
  stop_flag_.store(true, std::memory_order_release);
  if (watcher_.joinable()) watcher_.join();
  // New threads must stop getting rings before handlers are quiesced.
  ThreadWatchRegistry::global().set_register_hook(nullptr);
  // Quiescence handshake (see profiler_signal_handler): after the seq_cst
  // store, any handler that passes its re-check was already counted in
  // g_handlers_inflight, so once the counter drains to zero no handler
  // can touch a ring again.
  detail::g_profiler_active.store(false, std::memory_order_seq_cst);
  while (g_handlers_inflight.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // Detach: records may outlive this profiler run; rings are retained in
  // rings_ for samples()/folded() until clear() or the next start().
  ThreadWatchRegistry::global().for_each([](WatchedThread& rec) {
    // relaxed: handlers are quiesced; nothing reads this concurrently.
    rec.profiler_data.store(nullptr, std::memory_order_relaxed);
  });
  // relaxed: lifecycle_mu_ orders this against the next start().
  g_active_profiler.store(nullptr, std::memory_order_relaxed);
  running_ = false;
}

void SamplingProfiler::watcher_loop(std::uint64_t interval_us) {
  const auto interval = std::chrono::microseconds(interval_us);
  // acquire: pairs with stop()'s release store.
  while (!stop_flag_.load(std::memory_order_acquire)) {
    ThreadWatchRegistry::global().for_each([this](WatchedThread& rec) {
      // Only signal threads that have a ring to write into. Safe by the
      // registry's liveness contract: rec belongs to a thread that cannot
      // exit while for_each holds the registry lock.
      // relaxed: advisory filter; the handler re-loads with acquire.
      if (rec.profiler_data.load(std::memory_order_relaxed) == nullptr) return;
      if (pthread_kill(rec.handle, SIGPROF) == 0) {
        signals_.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(interval);
  }
}

std::vector<ProfileSample> SamplingProfiler::samples() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    MutexLock lock(rings_mu_);
    rings = rings_;
  }
  std::vector<ProfileSample> out;
  for (const auto& ring : rings) {
    // Seqlock read protocol — mirrors FlightRecorder::snapshot(), see
    // obs/recorder.cpp for the memory-order rationale.
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->slots.size();
    const std::uint64_t begin = head > cap ? head - cap : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const auto& slot = ring->slots[i & (cap - 1)];
      const std::uint64_t seq_a = slot.seq.load(std::memory_order_acquire);
      if (seq_a != 2 * i + 2) continue;
      ProfileSample sample;
      sample.role = ring->role;
      sample.tid = ring->tid;
      sample.ts_us = slot.ts_us.load(std::memory_order_acquire);
      std::uint32_t depth = slot.depth.load(std::memory_order_acquire);
      depth = std::min<std::uint32_t>(depth, kMaxProfFrames);
      sample.pcs.resize(depth);
      for (std::uint32_t f = 0; f < depth; ++f) {
        sample.pcs[f] = slot.pcs[f].load(std::memory_order_acquire);
      }
      // relaxed: the acquire loads above order this check after the
      // payload reads.
      if (slot.seq.load(std::memory_order_relaxed) != seq_a) continue;
      out.push_back(std::move(sample));
    }
  }
  return out;
}

std::string SamplingProfiler::folded() const {
  const std::vector<ProfileSample> all = samples();
  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  const auto symbol = [&symbol_cache](std::uintptr_t pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, symbolize_pc(pc)).first;
    }
    return it->second;
  };
  // std::map: deterministic line order for a given sample multiset.
  std::map<std::string, std::uint64_t> counts;
  std::string stack;
  for (const ProfileSample& sample : all) {
    if (sample.pcs.empty()) continue;
    stack.clear();
    stack += sample.role;
    // Root-first: walk order is leaf-first, so emit in reverse. Non-leaf
    // pcs are return addresses — symbolize the call site (pc - 1).
    for (std::size_t f = sample.pcs.size(); f-- > 0;) {
      stack += ';';
      const std::uintptr_t pc = sample.pcs[f];
      stack += symbol(f == 0 ? pc : pc - 1);
    }
    ++counts[stack];
  }
  std::string out;
  char line[32];
  for (const auto& [key, count] : counts) {
    out += key;
    std::snprintf(line, sizeof(line), " %llu\n",
                  static_cast<unsigned long long>(count));
    out += line;
  }
  return out;
}

bool SamplingProfiler::dump_folded(const std::string& path) const {
  const std::string text = folded();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    ODA_LOG_WARN << "profiler: cannot open folded output " << path;
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    ODA_LOG_WARN << "profiler: short write to " << path;
    return false;
  }
  return true;
}

std::uint64_t SamplingProfiler::sampled_total() const {
  MutexLock lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    // relaxed: statistics counter.
    total += ring->sampled.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t SamplingProfiler::truncated_total() const {
  MutexLock lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    // relaxed: statistics counter.
    total += ring->truncated.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t SamplingProfiler::signals_sent() const {
  return signals_.load(std::memory_order_relaxed);
}

std::size_t SamplingProfiler::thread_count() const {
  MutexLock lock(rings_mu_);
  return rings_.size();
}

void SamplingProfiler::clear() {
  MutexLock lifecycle(lifecycle_mu_);
  if (running_) {
    ODA_LOG_WARN << "profiler: clear() ignored while running";
    return;
  }
  MutexLock lock(rings_mu_);
  rings_.clear();
}

}  // namespace oda::obs
