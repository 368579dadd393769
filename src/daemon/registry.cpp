#include "daemon/registry.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/format.hpp"
#include "inject/fault.hpp"

namespace numashare::nsd {

namespace {
constexpr std::uint64_t kMagic = 0x6e756d617372656dull;  // "numasrem" (registry member)
// v2: slot state is a packed {nonce, state} word (torn-claim hardening).
// v3: slots mirror compliance state (health, commanded/enacted epochs,
//     channel drop counters) for status tools.
// v4: foreign-workload shard (foreign_count + ForeignSlot rows) appended for
//     daemon-status visibility into non-participant arbitration.
// v5: per-client stalled_workers mirror (scheduler-latency watchdog) so
//     status tools can tell a starved client from a defiant one.
// v6: failover tier — daemon_heartbeat + arbiter_generation header words
//     (client-side liveness detection, generation-fenced failback) and
//     per-slot degraded-mode proposal fields + failover_state mirror.
// v7: scale tier — kMaxClients 32 -> 1024 behind a 16 x 64 shard structure
//     with per-shard attention bitmap words (header.attention[]) so the
//     daemon visits only flagged slots per tick instead of scanning the
//     full capacity (docs/DAEMON.md "Scaling the tick path").
// v8: the header's `tick` word is gone; daemon_heartbeat is the one
//     daemon-liveness word.
constexpr std::uint32_t kVersion = 8;

RegistryHeader* map_segment(int fd) {
  void* mapped =
      mmap(nullptr, sizeof(RegistryHeader), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  return mapped == MAP_FAILED ? nullptr : static_cast<RegistryHeader*>(mapped);
}
}  // namespace

Registry::Registry(std::string name, RegistryHeader* header, bool creator)
    : name_(std::move(name)), header_(header), creator_(creator) {}

std::unique_ptr<Registry> Registry::create(const std::string& name, std::string* error) {
  const auto fail = [&](const std::string& what) -> std::unique_ptr<Registry> {
    if (error) *error = ns_format("{}: {}", what, std::strerror(errno));
    return nullptr;
  };
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return fail("shm_open(create registry)");
  if (ftruncate(fd, sizeof(RegistryHeader)) != 0) {
    close(fd);
    shm_unlink(name.c_str());
    return fail("ftruncate(registry)");
  }
  auto* header = map_segment(fd);
  close(fd);
  if (header == nullptr) {
    shm_unlink(name.c_str());
    return fail("mmap(registry)");
  }
  new (header) RegistryHeader;
  header->version = kVersion;
  header->daemon_pid.store(static_cast<std::uint32_t>(::getpid()), std::memory_order_relaxed);
  header->generation.store(0, std::memory_order_relaxed);
  header->daemon_heartbeat.store(0, std::memory_order_relaxed);
  header->arbiter_generation.store(0, std::memory_order_relaxed);
  header->node_count.store(0, std::memory_order_relaxed);
  for (auto& cores : header->node_cores) cores.store(0, std::memory_order_relaxed);
  for (auto& word : header->attention) word.store(0, std::memory_order_relaxed);
  for (auto& slot : header->slots) {
    slot.state_word.store(pack_state(SlotState::kFree, 0), std::memory_order_relaxed);
    slot.heartbeat.store(0, std::memory_order_relaxed);
    slot.health.store(static_cast<std::uint32_t>(ClientHealth::kHealthy),
                      std::memory_order_relaxed);
    slot.commanded_epoch.store(0, std::memory_order_relaxed);
    slot.enacted_epoch.store(0, std::memory_order_relaxed);
    slot.commands_dropped.store(0, std::memory_order_relaxed);
    slot.telemetry_dropped.store(0, std::memory_order_relaxed);
    slot.proposal_seq.store(0, std::memory_order_relaxed);
    for (auto& d : slot.proposal_desired) d.store(0, std::memory_order_relaxed);
    slot.proposal_generation.store(0, std::memory_order_relaxed);
    slot.failover_state.store(0, std::memory_order_relaxed);
  }
  header->foreign_count.store(0, std::memory_order_relaxed);
  for (auto& row : header->foreign) {
    row.pid.store(0, std::memory_order_relaxed);
    std::memset(row.name, 0, sizeof(row.name));
    row.fence.store(0, std::memory_order_relaxed);
    row.fence_node.store(agent::kMaxNodes, std::memory_order_relaxed);
    row.busy_millicores.store(0, std::memory_order_relaxed);
    for (auto& m : row.node_millicores) m.store(0, std::memory_order_relaxed);
  }
  header->magic.store(kMagic, std::memory_order_release);
  return std::unique_ptr<Registry>(new Registry(name, header, /*creator=*/true));
}

std::unique_ptr<Registry> Registry::open(const std::string& name, std::string* error) {
  const auto fail = [&](const std::string& what,
                        bool use_errno = true) -> std::unique_ptr<Registry> {
    if (error) {
      *error = use_errno ? ns_format("{}: {}", what, std::strerror(errno)) : what;
    }
    return nullptr;
  };
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return fail("shm_open(open registry)");
  struct stat st{};
  if (fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < sizeof(RegistryHeader)) {
    close(fd);
    return fail("registry segment too small", false);
  }
  auto* header = map_segment(fd);
  close(fd);
  if (header == nullptr) return fail("mmap(registry)");
  if (header->magic.load(std::memory_order_acquire) != kMagic ||
      header->version != kVersion) {
    munmap(header, sizeof(RegistryHeader));
    return fail("magic/version mismatch (not a numashare registry?)", false);
  }
  return std::unique_ptr<Registry>(new Registry(name, header, /*creator=*/false));
}

Registry::~Registry() {
  if (header_ != nullptr) munmap(header_, sizeof(RegistryHeader));
  if (creator_) shm_unlink(name_.c_str());
}

std::optional<Registry::Claim> Registry::claim_slot(const std::string& client_name,
                                                    double advertised_ai,
                                                    std::uint32_t data_home) {
  for (std::uint32_t i = 0; i < kMaxClients; ++i) {
    auto& slot = header_->slots[i];
    std::uint64_t word = slot.state_word.load(std::memory_order_relaxed);
    if (state_of(word) != SlotState::kFree) continue;
    if (!slot.try_transition(word, SlotState::kClaiming)) continue;
    // Flag before the fault hooks: a claimant killed at the hook below still
    // gets its stalled claim noticed (and timed out) from the bitmap path.
    raise_attention(*header_, i);
    inject::fire_pause("registry.pause", "claiming");
    inject::fire_die("registry.die", "claiming", 43);
    // We own the slot until the daemon activates it, we abandon it, or —
    // if we stall here past the claim timeout — the daemon reclaims it.
    slot.pid.store(static_cast<std::uint32_t>(::getpid()), std::memory_order_relaxed);
    std::memset(slot.name, 0, sizeof(slot.name));
    std::strncpy(slot.name, client_name.c_str(), sizeof(slot.name) - 1);
    slot.advertised_ai.store(advertised_ai, std::memory_order_relaxed);
    slot.data_home.store(data_home, std::memory_order_relaxed);
    slot.generation.store(0, std::memory_order_relaxed);
    std::memset(slot.channel_name, 0, sizeof(slot.channel_name));
    slot.heartbeat.store(1, std::memory_order_relaxed);
    // A reused slot must not carry the previous occupant's degraded-mode
    // proposal into the next daemon-loss episode.
    slot.proposal_seq.store(0, std::memory_order_relaxed);
    slot.proposal_generation.store(0, std::memory_order_relaxed);
    slot.failover_state.store(0, std::memory_order_relaxed);
    // Identity is complete; only now may the daemon look at it. The CAS
    // fails exactly when the daemon reclaimed our stalled claim — the slot
    // belongs to whoever owns it now, so move on to another one.
    if (!slot.try_transition(word, SlotState::kJoining)) continue;
    raise_attention(*header_, i);
    inject::fire_pause("registry.pause", "joining");
    inject::fire_die("registry.die", "joining", 44);
    return Claim{i, word};
  }
  return std::nullopt;
}

bool Registry::daemon_alive() const {
  const auto pid = header_->daemon_pid.load(std::memory_order_relaxed);
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace numashare::nsd
