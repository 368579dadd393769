#include "topology/discovery.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace numashare::topo {
namespace {

namespace fs = std::filesystem;

class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = fs::temp_directory_path() /
            ("numashare-sysfs-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~FakeSysfs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const std::string& relative, const std::string& content) {
    const fs::path path = root_ / relative;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << content;
  }

  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
  static inline int counter_ = 0;
};

TEST(Discovery, ParsesTwoNodeTree) {
  FakeSysfs sysfs;
  sysfs.write("online", "0-1\n");
  sysfs.write("node0/cpulist", "0-3\n");
  sysfs.write("node1/cpulist", "4-7\n");

  DiscoveryOptions options;
  options.sysfs_root = sysfs.path();

  // sysfs has no speeds: discovery assumes 1 GFLOPS per core, 10 GB/s per
  // node and 5 GB/s per link.
  const auto machine = discover_host(options);
  ASSERT_TRUE(machine.has_value());
  EXPECT_EQ(machine->node_count(), 2u);
  EXPECT_EQ(machine->core_count(), 8u);
  EXPECT_EQ(machine->cores_in_node(1), 4u);
  EXPECT_DOUBLE_EQ(machine->core(0).peak_gflops, 1.0);
  EXPECT_DOUBLE_EQ(machine->node(0).memory_bandwidth, 10.0);
  EXPECT_DOUBLE_EQ(machine->link_bandwidth(0, 1), 5.0);
  EXPECT_TRUE(machine->validate());
}

TEST(Discovery, HandlesCommaSeparatedCpulists) {
  FakeSysfs sysfs;
  sysfs.write("online", "0\n");
  sysfs.write("node0/cpulist", "0,2,4-5\n");
  DiscoveryOptions options;
  options.sysfs_root = sysfs.path();
  const auto machine = discover_host(options);
  ASSERT_TRUE(machine.has_value());
  EXPECT_EQ(machine->core_count(), 4u);
}

TEST(Discovery, SkipsMemoryOnlyNodes) {
  FakeSysfs sysfs;
  sysfs.write("online", "0-1\n");
  sysfs.write("node0/cpulist", "0-1\n");
  sysfs.write("node1/cpulist", "\n");  // CXL-style memory-only node
  DiscoveryOptions options;
  options.sysfs_root = sysfs.path();
  const auto machine = discover_host(options);
  ASSERT_TRUE(machine.has_value());
  EXPECT_EQ(machine->node_count(), 1u);
}

TEST(Discovery, MissingTreeReturnsNullopt) {
  DiscoveryOptions options;
  options.sysfs_root = "/nonexistent/numashare-sysfs";
  EXPECT_FALSE(discover_host(options).has_value());
}

TEST(Discovery, FallbackProducesUsableFlatMachine) {
  DiscoveryOptions options;
  options.sysfs_root = "/nonexistent/numashare-sysfs";
  const auto machine = discover_host_or_flat(options);
  EXPECT_GE(machine.core_count(), 1u);
  EXPECT_EQ(machine.node_count(), 1u);
  EXPECT_TRUE(machine.validate());
}

TEST(Discovery, RealHostIfPresent) {
  // On a real Linux host this exercises the live parser end to end.
  const auto machine = discover_host();
  if (!machine.has_value()) GTEST_SKIP() << "no /sys NUMA tree";
  EXPECT_GE(machine->node_count(), 1u);
  EXPECT_GE(machine->core_count(), 1u);
  EXPECT_TRUE(machine->validate());
}

}  // namespace
}  // namespace numashare::topo
