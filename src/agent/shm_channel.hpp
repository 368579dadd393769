// POSIX shared-memory transport: the agent as a real separate process.
//
// The paper's Figure 1 runs the agent outside the applications. This
// transport carries exactly the same POD Command/Telemetry messages through
// the same ShmRing pair as the in-process Channel, but places the rings in a
// shm_open/mmap segment — legal across process boundaries because ShmRing
// holds only address-free atomics and trivially copyable slots.
//
// Roles: the agent create()s the segment (and unlinks it on destruction);
// each application attach()es by name. One segment per (agent, app) pair,
// preserving the SPSC discipline per ring.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "agent/channel.hpp"
#include "agent/protocol.hpp"

namespace numashare::agent {

class ShmChannel final : public ChannelBase {
 public:
  static constexpr std::size_t kCommandSlots = 64;
  static constexpr std::size_t kTelemetrySlots = 256;

  /// Agent side: create (exclusively) and initialize the segment. The
  /// creating ShmChannel unlinks the name on destruction.
  static std::unique_ptr<ShmChannel> create(const std::string& name, std::string* error = nullptr);
  /// Application side: attach to an existing segment. Validates the magic
  /// and protocol version before use.
  static std::unique_ptr<ShmChannel> attach(const std::string& name, std::string* error = nullptr);

  ~ShmChannel() override;

  ShmChannel(const ShmChannel&) = delete;
  ShmChannel& operator=(const ShmChannel&) = delete;

  const std::string& name() const { return name_; }
  bool is_creator() const { return creator_; }

  // ChannelBase.
  bool push_command(const Command& command) override;
  std::optional<Command> pop_command() override;
  bool push_telemetry(const Telemetry& telemetry) override;
  std::optional<Telemetry> pop_telemetry() override;
  /// O(1) sequence-coalesced drain (ShmRing::drain_to_newest): one cursor
  /// store consumes the whole backlog instead of 256 serial pops.
  std::uint64_t drain_newest(Telemetry& out) override;
  /// Drop counters live in the segment itself, so either end sees losses
  /// regardless of which process suffered the full ring.
  std::uint64_t commands_dropped() const override;
  std::uint64_t telemetry_dropped() const override;

  std::uint64_t commands_queued() const;
  std::uint64_t telemetry_queued() const;

 private:
  struct Layout;

  ShmChannel(std::string name, Layout* layout, bool creator);

  std::string name_;
  Layout* layout_ = nullptr;
  bool creator_ = false;
};

/// Unlink every POSIX shm segment whose name starts with `prefix` (leading
/// '/' optional, as in shm_open). Returns the number of segments removed.
///
/// A crashed agent or application leaves its segments behind — only the
/// creator's destructor unlinks, and a SIGKILL never runs it. The daemon
/// calls this on startup with its channel prefix to reclaim /dev/shm litter
/// from a previous incarnation before creating fresh segments.
std::size_t cleanup_stale_segments(const std::string& prefix, std::string* error = nullptr);

}  // namespace numashare::agent
