#include "agent/shm_channel.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "inject/fault.hpp"

namespace numashare::agent {

namespace {
constexpr std::uint64_t kMagic = 0x6e756d6173686172ull;  // "numashar"
// v2: added cross-process drop counters after the rings.
// v3: Command carries a compliance epoch; Telemetry carries the enacted
//     epoch/target ack (message sizes changed).
// v4: Telemetry carries cumulative datablock migration counters
//     (blocks_migrated / bytes_migrated; message size changed).
// v5: Command carries the issuing daemon's arbiter_generation (failback
//     fencing; message size changed).
// v6: the option-2 block-cores command and its 256-bit core bitmap are
//     gone (no policy sent them; Command shrinks from 152 to 112 bytes).
constexpr std::uint32_t kVersion = 6;

/// The transport fault sites of one ring (docs/INJECT.md).
struct RingSites {
  const char* drop;
  const char* delay;
  const char* dup;
};
constexpr RingSites kCommandSites{"shm.cmd.drop", "shm.cmd.delay", "shm.cmd.dup"};
constexpr RingSites kTelemetrySites{"shm.tel.drop", "shm.tel.delay", "shm.tel.dup"};

/// Push `message` through its ring's fault sites; a full ring bumps the
/// segment's drop counter. Returns whether `message` itself was pushed.
template <typename T, std::size_t N>
bool push_through_faults(const RingSites& sites, ShmRing<T, N>& ring,
                         std::atomic<std::uint64_t>& dropped, const T& message) {
  const auto push = [&](const T& m) {
    if (ring.try_push(m)) return true;
    dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  // In-transit loss: report success to the sender and do NOT bump the drop
  // counter — the receiver must detect the gap from seq alone.
  if (inject::fire(sites.drop, message.seq)) return true;
  if (inject::hold(sites.delay, message.seq, &message, sizeof(message))) return true;
  if (inject::fire(sites.dup, message.seq)) push(message);
  const bool pushed = push(message);
  // A held message whose delay expired is re-injected AFTER the current
  // push — with ticks=1 the two genuinely swap order on the wire. Messages
  // are only ever held while a plan is armed.
  inject::delay_tick(sites.delay);
  if (inject::plan_active()) {
    T held{};
    while (inject::take_ready(sites.delay, &held, sizeof(held))) push(held);
  }
  return pushed;
}
}  // namespace

struct ShmChannel::Layout {
  std::atomic<std::uint64_t> magic;
  std::uint32_t version;
  ShmRing<Command, kCommandSlots> commands;
  ShmRing<Telemetry, kTelemetrySlots> telemetry;
  std::atomic<std::uint64_t> commands_dropped;
  std::atomic<std::uint64_t> telemetry_dropped;
};

ShmChannel::Layout* ShmChannel::init_layout(void* mapped) {
  auto* layout = new (mapped) Layout;
  layout->version = kVersion;
  layout->commands.init();
  layout->telemetry.init();
  layout->commands_dropped.store(0, std::memory_order_relaxed);
  layout->telemetry_dropped.store(0, std::memory_order_relaxed);
  // Publish the magic last: an attacher seeing it can trust the rest.
  layout->magic.store(kMagic, std::memory_order_release);
  return layout;
}

ShmChannel::ShmChannel() {
  void* mapped = mmap(nullptr, sizeof(Layout), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  NS_REQUIRE(mapped != MAP_FAILED, "mmap of a private channel failed");
  layout_ = init_layout(mapped);
}

ShmChannel::ShmChannel(std::string name, Layout* layout, bool creator)
    : name_(std::move(name)), layout_(layout), creator_(creator) {}

std::unique_ptr<ShmChannel> ShmChannel::create(const std::string& name, std::string* error) {
  const auto fail = [&](const std::string& what) -> std::unique_ptr<ShmChannel> {
    if (error) *error = ns_format("{}: {}", what, std::strerror(errno));
    return nullptr;
  };
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return fail("shm_open(create)");
  if (ftruncate(fd, sizeof(Layout)) != 0) {
    close(fd);
    shm_unlink(name.c_str());
    return fail("ftruncate");
  }
  void* mapped = mmap(nullptr, sizeof(Layout), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mapped == MAP_FAILED) {
    shm_unlink(name.c_str());
    return fail("mmap");
  }
  return std::unique_ptr<ShmChannel>(new ShmChannel(name, init_layout(mapped), /*creator=*/true));
}

std::unique_ptr<ShmChannel> ShmChannel::attach(const std::string& name, std::string* error) {
  const auto fail = [&](const std::string& what,
                        bool use_errno = true) -> std::unique_ptr<ShmChannel> {
    if (error) {
      *error = use_errno ? ns_format("{}: {}", what, std::strerror(errno)) : what;
    }
    return nullptr;
  };
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return fail("shm_open(attach)");
  struct stat st{};
  if (fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < sizeof(Layout)) {
    close(fd);
    return fail("segment too small for protocol layout", false);
  }
  void* mapped = mmap(nullptr, sizeof(Layout), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mapped == MAP_FAILED) return fail("mmap");
  auto* layout = static_cast<Layout*>(mapped);
  if (layout->magic.load(std::memory_order_acquire) != kMagic ||
      layout->version != kVersion) {
    munmap(mapped, sizeof(Layout));
    return fail("magic/version mismatch (not a numashare channel?)", false);
  }
  return std::unique_ptr<ShmChannel>(new ShmChannel(name, layout, /*creator=*/false));
}

ShmChannel::~ShmChannel() {
  if (layout_ != nullptr) {
    munmap(layout_, sizeof(Layout));
  }
  if (creator_) {
    shm_unlink(name_.c_str());
  }
}

bool ShmChannel::push_command(const Command& command) {
  return push_through_faults(kCommandSites, layout_->commands, layout_->commands_dropped,
                             command);
}

std::optional<Command> ShmChannel::pop_command() {
  // Enactment stall: the runtime side takes this long to get around to the
  // next command — the laggard the compliance watchdog exists to catch. The
  // command is delayed, not lost (a stalled app eventually complies).
  inject::fire_pause("client.enact.stall", nullptr);
  return layout_->commands.try_pop();
}

bool ShmChannel::push_telemetry(const Telemetry& telemetry) {
  // Ack suppression: telemetry still flows, but the compliance ack fields
  // are wiped — the runtime looks alive yet never reports enactment.
  if (inject::fire("client.ack.suppress", telemetry.seq)) {
    Telemetry stripped = telemetry;
    stripped.enacted_epoch = 0;
    stripped.enacted_target = kUnconstrained;
    return push_through_faults(kTelemetrySites, layout_->telemetry, layout_->telemetry_dropped,
                               stripped);
  }
  return push_through_faults(kTelemetrySites, layout_->telemetry, layout_->telemetry_dropped,
                             telemetry);
}

std::optional<Telemetry> ShmChannel::pop_telemetry() {
  return layout_->telemetry.try_pop();
}

std::uint64_t ShmChannel::drain_newest(Telemetry& out) {
  return layout_->telemetry.drain_to_newest(out);
}

std::uint64_t ShmChannel::commands_dropped() const {
  return layout_->commands_dropped.load(std::memory_order_relaxed);
}

std::uint64_t ShmChannel::telemetry_dropped() const {
  return layout_->telemetry_dropped.load(std::memory_order_relaxed);
}

std::uint64_t ShmChannel::commands_queued() const { return layout_->commands.size(); }

std::uint64_t ShmChannel::telemetry_queued() const { return layout_->telemetry.size(); }

std::size_t cleanup_stale_segments(const std::string& registry_name, std::string* error) {
  // POSIX shm names live as files under /dev/shm on Linux, minus the
  // leading '/'. Scanning the directory is the only portable-enough way to
  // enumerate them; shm_open offers no listing API.
  std::string want = registry_name;
  if (!want.empty() && want.front() == '/') want.erase(0, 1);
  if (want.empty()) {
    if (error) *error = "refusing to cleanup with an empty registry name";
    return 0;
  }
  // The daemon's channel naming (Daemon::admit).
  const std::string channels = want + "-chan-";
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) {
    if (error) *error = ns_format("opendir(/dev/shm): {}", std::strerror(errno));
    return 0;
  }
  std::size_t removed = 0;
  while (const dirent* entry = readdir(dir)) {
    const std::string file = entry->d_name;
    if (file != want && file.rfind(channels, 0) != 0) continue;
    const std::string shm_name = "/" + file;
    if (shm_unlink(shm_name.c_str()) == 0) ++removed;
  }
  closedir(dir);
  return removed;
}

}  // namespace numashare::agent
