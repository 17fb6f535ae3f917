#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "starvm/engine.hpp"
#include "starvm/fault.hpp"

namespace starvm {
namespace {

Codelet make_codelet(std::string name, std::function<void(const ExecContext&)> fn,
                     DeviceKind kind = DeviceKind::kCpu) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{kind, std::move(fn)});
  return c;
}

TEST(Engine, RequiresAtLeastOneDevice) {
  EngineConfig config;
  EXPECT_THROW(Engine engine(std::move(config)), std::invalid_argument);
}

TEST(Engine, ExecutesSingleTask) {
  Engine engine(EngineConfig::cpus(1));
  std::vector<double> data = {1, 2, 3, 4};
  DataHandle* h = engine.register_vector(data.data(), data.size(), "v");
  std::atomic<bool> ran{false};
  Codelet c = make_codelet("touch", [&](const ExecContext& ctx) {
    ctx.buffer(0)[0] = 42.0;
    ran = true;
  });
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(data[0], 42.0);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_GT(stats.makespan_seconds, 0.0);
  ASSERT_EQ(stats.trace.size(), 1u);
  EXPECT_EQ(stats.trace[0].label, "t");
}

TEST(Engine, RejectsInvalidSubmissions) {
  Engine engine(EngineConfig::cpus(1));
  Codelet empty;
  empty.name = "empty";
  EXPECT_THROW(engine.submit(TaskDesc{&empty, {}}), std::invalid_argument);
  EXPECT_THROW(engine.submit(TaskDesc{nullptr, {}}), std::invalid_argument);

  // A codelet only an accelerator can run is rejected on a CPU-only engine.
  Codelet accel_only =
      make_codelet("accel", [](const ExecContext&) {}, DeviceKind::kAccelerator);
  EXPECT_THROW(engine.submit(TaskDesc{&accel_only, {}}), std::invalid_argument);

  Codelet ok = make_codelet("ok", [](const ExecContext&) {});
  EXPECT_THROW(engine.submit(TaskDesc{&ok, {{nullptr, Access::kRead}}}),
               std::invalid_argument);
}

TEST(Engine, RawDependencyOrdersWriterBeforeReader) {
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> data(8, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());

  std::mutex log_mutex;
  std::vector<std::string> log;
  const auto logger = [&](std::string tag) {
    return [&, tag](const ExecContext&) {
      std::lock_guard<std::mutex> lock(log_mutex);
      log.push_back(tag);
    };
  };
  Codelet writer = make_codelet("w", logger("write"));
  Codelet reader = make_codelet("r", logger("read"));

  engine.submit(TaskDesc{&writer, {{h, Access::kWrite}}});
  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "write");  // both reads after the write
}

TEST(Engine, WawAndWarDependenciesSerializeWrites) {
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> data(1, 0.0);
  DataHandle* h = engine.register_vector(data.data(), 1);

  // Each writer appends its index; sequential consistency demands 1,2,3...
  Codelet append = make_codelet("append", [&](const ExecContext& ctx) {
    ctx.buffer(0)[0] = ctx.buffer(0)[0] * 10.0 + 1.0;
  });
  for (int i = 0; i < 6; ++i) {
    engine.submit(TaskDesc{&append, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_DOUBLE_EQ(data[0], 111111.0);
}

TEST(Engine, SubmitBatchPreservesIntraBatchDependencies) {
  // A batch is wired in order under one lock acquisition; the inferred
  // edges must be identical to submitting the descriptors one by one.
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> data(1, 0.0);
  DataHandle* h = engine.register_vector(data.data(), 1);

  Codelet append = make_codelet("append", [&](const ExecContext& ctx) {
    ctx.buffer(0)[0] = ctx.buffer(0)[0] * 10.0 + 1.0;
  });
  std::vector<TaskDesc> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(TaskDesc{&append, {{h, Access::kReadWrite}}});
  }
  const std::vector<TaskId> ids = engine.submit_batch(std::move(batch));
  ASSERT_EQ(ids.size(), 6u);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], ids[i - 1] + 1) << "ids must be dense and ordered";
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_DOUBLE_EQ(data[0], 111111.0);
}

TEST(Engine, SubmitBatchDependsOnEarlierSubmissions) {
  // Cross-boundary RAW: a batch's readers must wait for a writer that was
  // submitted individually before the batch.
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> data(1, 0.0);
  DataHandle* h = engine.register_vector(data.data(), 1);

  Codelet writer = make_codelet("w", [&](const ExecContext& ctx) {
    ctx.buffer(0)[0] = 7.0;
  });
  std::atomic<int> misreads{0};
  Codelet reader = make_codelet("r", [&](const ExecContext& ctx) {
    if (ctx.buffer(0)[0] != 7.0) misreads.fetch_add(1);
  });
  engine.submit(TaskDesc{&writer, {{h, Access::kWrite}}});
  std::vector<TaskDesc> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(TaskDesc{&reader, {{h, Access::kRead}}});
  }
  (void)engine.submit_batch(std::move(batch));
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(misreads.load(), 0);
}

TEST(Engine, SubmitBatchEmptyIsNoop) {
  Engine engine(EngineConfig::cpus(1));
  EXPECT_TRUE(engine.submit_batch({}).empty());
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().tasks_completed, 0u);
}

TEST(Engine, IndependentTasksRunConcurrently) {
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> a(1), b(1), c(1), d(1);
  DataHandle* ha = engine.register_vector(a.data(), 1);
  DataHandle* hb = engine.register_vector(b.data(), 1);
  DataHandle* hc = engine.register_vector(c.data(), 1);
  DataHandle* hd = engine.register_vector(d.data(), 1);

  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  Codelet busy = make_codelet("busy", [&](const ExecContext&) {
    const int now = ++concurrent;
    int old_peak = peak.load();
    while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --concurrent;
  });
  for (DataHandle* h : {ha, hb, hc, hd}) {
    engine.submit(TaskDesc{&busy, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_GE(peak.load(), 2);  // at least some overlap across 4 devices
}

TEST(Engine, PartitionRowsCoversMatrixWithCorrectGeometry) {
  Engine engine(EngineConfig::cpus(2));
  const std::size_t rows = 10, cols = 6;
  std::vector<double> data(rows * cols);
  DataHandle* h = engine.register_matrix(data.data(), rows, cols);
  auto blocks = engine.partition_rows(h, 4);
  ASSERT_EQ(blocks.size(), 4u);  // 3+3+3+1
  EXPECT_TRUE(h->partitioned());

  std::size_t total_rows = 0;
  for (const DataHandle* b : blocks) {
    EXPECT_EQ(b->cols(), cols);
    EXPECT_EQ(b->ld(), cols);
    EXPECT_EQ(b->parent(), h);
    total_rows += b->rows();
  }
  EXPECT_EQ(total_rows, rows);
  EXPECT_EQ(blocks[0]->rows(), 3u);
  EXPECT_EQ(blocks[3]->rows(), 1u);
  // Block pointers tile the buffer contiguously.
  EXPECT_EQ(blocks[1]->ptr(), data.data() + 3 * cols);
}

TEST(Engine, PartitionMoreBlocksThanRowsReturnsRequestedCount) {
  Engine engine(EngineConfig::cpus(1));
  std::vector<double> data(3 * 2);
  DataHandle* h = engine.register_matrix(data.data(), 3, 2);
  // Callers index blocks[i] for i < nblocks; the tail must exist (empty),
  // not silently vanish.
  auto blocks = engine.partition_rows(h, 8);
  ASSERT_EQ(blocks.size(), 8u);
  std::size_t total_rows = 0;
  for (const DataHandle* b : blocks) total_rows += b->rows();
  EXPECT_EQ(total_rows, 3u);
  for (std::size_t i = 3; i < 8; ++i) {
    EXPECT_EQ(blocks[i]->rows(), 0u);
    EXPECT_EQ(blocks[i]->bytes(), 0u);
  }
}

TEST(Engine, PartitionVector) {
  Engine engine(EngineConfig::cpus(1));
  std::vector<double> data(10);
  DataHandle* h = engine.register_vector(data.data(), 10);
  auto blocks = engine.partition_vector(h, 3);
  ASSERT_EQ(blocks.size(), 3u);  // 4+4+2
  EXPECT_EQ(blocks[0]->cols(), 4u);
  EXPECT_EQ(blocks[2]->cols(), 2u);
  EXPECT_EQ(blocks[1]->ptr(), data.data() + 4);
}

TEST(Engine, SubmitOnPartitionedParentIsRejected) {
  Engine engine(EngineConfig::cpus(1));
  std::vector<double> data(8);
  DataHandle* h = engine.register_matrix(data.data(), 4, 2);
  engine.partition_rows(h, 2);
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  EXPECT_THROW(engine.submit(TaskDesc{&c, {{h, Access::kRead}}}),
               std::invalid_argument);

  engine.unpartition(h);
  EXPECT_FALSE(h->partitioned());
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
}

TEST(Engine, BlockTasksRunIndependentlyAcrossBlocks) {
  Engine engine(EngineConfig::cpus(4));
  const std::size_t n = 64;
  std::vector<double> data(n, 1.0);
  DataHandle* h = engine.register_vector(data.data(), n);
  auto blocks = engine.partition_vector(h, 8);
  Codelet dbl = make_codelet("dbl", [](const ExecContext& ctx) {
    for (std::size_t i = 0; i < ctx.handle(0).cols(); ++i) ctx.buffer(0)[i] *= 2.0;
  });
  for (DataHandle* b : blocks) {
    engine.submit(TaskDesc{&dbl, {{b, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  for (double v : data) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Engine, AcceleratorExecutesOnHostButChargesModeledTime) {
  EngineConfig config;
  DeviceSpec accel;
  accel.name = "sim-gpu";
  accel.kind = DeviceKind::kAccelerator;
  accel.sustained_gflops = 100.0;
  accel.link_bandwidth_gbs = 10.0;
  accel.link_latency_us = 1.0;
  config.devices.push_back(accel);
  config.task_overhead_us = 0.0;
  Engine engine(std::move(config));

  std::vector<double> data(1024, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());

  Codelet c;
  c.name = "flop";
  c.impls.push_back(Implementation{DeviceKind::kAccelerator, [](const ExecContext& ctx) {
                                     ctx.buffer(0)[0] = 7.0;
                                   }});
  // Pretend this op costs 1e9 flops -> 0.01 s at 100 GFLOPS.
  c.flops = [](const std::vector<BufferView>&) { return 1e9; };
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());

  EXPECT_DOUBLE_EQ(data[0], 7.0);  // really executed (hybrid mode)
  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.trace.size(), 1u);
  // Modeled exec: 1e9 / (100e9) = 10 ms, far above the real host cost.
  EXPECT_NEAR(stats.trace[0].exec_seconds, 0.01, 1e-6);
  // The read pulled 8 KiB over the modeled link.
  EXPECT_GT(stats.trace[0].transfer_seconds, 0.0);
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.transfer_bytes, 1024u * 8u);
}

TEST(Engine, TransferOnlyWhenReplicaMissing) {
  EngineConfig config;
  DeviceSpec accel;
  accel.kind = DeviceKind::kAccelerator;
  accel.name = "gpu";
  config.devices.push_back(accel);
  Engine engine(std::move(config));

  std::vector<double> data(64, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet reader = make_codelet("r", [](const ExecContext&) {},
                                DeviceKind::kAccelerator);

  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().transfers, 1u);

  // Second read: the replica is already valid on the device.
  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().transfers, 1u);
}

TEST(Engine, WriteInvalidatesOtherReplicas) {
  EngineConfig config;
  DeviceSpec accel;
  accel.kind = DeviceKind::kAccelerator;
  accel.name = "gpu";
  config.devices.push_back(accel);
  DeviceSpec cpu;
  cpu.kind = DeviceKind::kCpu;
  cpu.name = "cpu";
  config.devices.push_back(cpu);
  config.scheduler = SchedulerKind::kEager;
  Engine engine(std::move(config));

  std::vector<double> data(64, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());

  Codelet accel_write = make_codelet("w", [](const ExecContext&) {},
                                     DeviceKind::kAccelerator);
  engine.submit(TaskDesc{&accel_write, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  // Written on the accelerator: its node is the only valid replica.
  EXPECT_FALSE(h->valid_on(kHostNode));

  Codelet cpu_read = make_codelet("r", [](const ExecContext&) {});
  engine.submit(TaskDesc{&cpu_read, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_TRUE(h->valid_on(kHostNode));  // fetched back
  EXPECT_EQ(engine.stats().transfers, 2u);
}

TEST(Engine, WaitForTaskInPureSimDrainsSimulation) {
  EngineConfig config = EngineConfig::cpus(2, 10.0);
  config.mode = ExecutionMode::kPureSim;
  Engine engine(std::move(config));
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  Codelet c;
  c.name = "sim";
  c.impls.push_back(Implementation{DeviceKind::kCpu, nullptr});
  c.flops = [](const std::vector<BufferView>&) { return 1e6; };
  const TaskId id = engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait(id));
  EXPECT_FALSE(engine.wait(id + 5));
  EXPECT_GT(engine.stats().makespan_seconds, 0.0);
}

TEST(Engine, PureSimSkipsExecutionButModelsTime) {
  EngineConfig config = EngineConfig::cpus(2, 10.0);  // 10 GFLOPS each
  config.mode = ExecutionMode::kPureSim;
  config.task_overhead_us = 0.0;
  Engine engine(std::move(config));

  std::vector<double> data(16, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c;
  c.name = "work";
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext& ctx) {
                                     ctx.buffer(0)[0] = 999.0;  // must NOT run
                                   }});
  c.flops = [](const std::vector<BufferView>&) { return 1e9; };  // 0.1 s at 10 GF

  std::vector<double> other(16, 1.0);
  DataHandle* h2 = engine.register_vector(other.data(), other.size());
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  engine.submit(TaskDesc{&c, {{h2, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());

  EXPECT_DOUBLE_EQ(data[0], 1.0);  // untouched
  const EngineStats stats = engine.stats();
  // Two independent 0.1 s tasks on two devices: makespan ~0.1 s, not 0.2.
  EXPECT_NEAR(stats.makespan_seconds, 0.1, 0.02);
  // And the wall clock barely moved (no real execution).
  EXPECT_LT(stats.wall_seconds, 0.05);
}

TEST(Engine, MakespanReflectsCriticalPathInPureSim) {
  EngineConfig config = EngineConfig::cpus(4, 1.0);  // 1 GFLOPS
  config.mode = ExecutionMode::kPureSim;
  config.task_overhead_us = 0.0;
  Engine engine(std::move(config));

  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  Codelet c;
  c.name = "chain";
  c.impls.push_back(Implementation{DeviceKind::kCpu, nullptr});
  c.flops = [](const std::vector<BufferView>&) { return 1e8; };  // 0.1 s each

  // A chain of 5 dependent tasks: makespan ~0.5 s despite 4 devices.
  for (int i = 0; i < 5; ++i) {
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_NEAR(engine.stats().makespan_seconds, 0.5, 0.05);
}

TEST(Engine, PriorityOrdersReadyTasksUnderEager) {
  EngineConfig config = EngineConfig::cpus(1);
  config.scheduler = SchedulerKind::kEager;
  Engine engine(std::move(config));

  std::mutex order_mutex;
  std::vector<int> order;
  Codelet tag;
  tag.name = "tag";
  // Block the single device so every subsequent task is queued before any
  // is popped; then the pops must follow priority order.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  Codelet blocker = make_codelet("blocker", [&](const ExecContext&) {
    started = true;
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::vector<double> dummy(1);
  DataHandle* hd = engine.register_vector(dummy.data(), 1);
  engine.submit(TaskDesc{&blocker, {{hd, Access::kRead}}});
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<std::vector<double>> buffers(4, std::vector<double>(1));
  std::vector<Codelet> codelets;
  codelets.reserve(4);
  const int priorities[] = {0, 5, -3, 2};
  for (int i = 0; i < 4; ++i) {
    codelets.push_back(make_codelet("p" + std::to_string(i),
                                    [&, i](const ExecContext&) {
                                      std::lock_guard<std::mutex> lock(order_mutex);
                                      order.push_back(priorities[i]);
                                    }));
  }
  for (int i = 0; i < 4; ++i) {
    DataHandle* h = engine.register_vector(buffers[static_cast<std::size_t>(i)].data(), 1);
    TaskDesc desc{&codelets[static_cast<std::size_t>(i)], {{h, Access::kRead}}};
    desc.priority = priorities[i];
    engine.submit(std::move(desc));
  }
  release = true;
  EXPECT_TRUE(engine.wait_all().ok());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{5, 2, 0, -3}));
}

TEST(Engine, WaitForSpecificTask) {
  Engine engine(EngineConfig::cpus(2));
  std::vector<double> a(1), b(1);
  DataHandle* ha = engine.register_vector(a.data(), 1);
  DataHandle* hb = engine.register_vector(b.data(), 1);

  Codelet quick = make_codelet("quick", [](const ExecContext& ctx) {
    ctx.buffer(0)[0] = 1.0;
  });
  Codelet slow = make_codelet("slow", [](const ExecContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.buffer(0)[0] = 2.0;
  });
  const TaskId slow_id = engine.submit(TaskDesc{&slow, {{hb, Access::kWrite}}});
  const TaskId quick_id = engine.submit(TaskDesc{&quick, {{ha, Access::kWrite}}});

  EXPECT_TRUE(engine.wait(quick_id));
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_TRUE(engine.wait(slow_id));
  EXPECT_DOUBLE_EQ(b[0], 2.0);
  EXPECT_FALSE(engine.wait(999));
  EXPECT_FALSE(engine.wait(0));
  EXPECT_TRUE(engine.wait_all().ok());
}

TEST(Engine, ExplicitDependenciesOrderUnrelatedTasks) {
  Engine engine(EngineConfig::cpus(4));
  std::mutex order_mutex;
  std::vector<int> order;
  const auto tagger = [&](int tag) {
    return [&, tag](const ExecContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(tag == 1 ? 20 : 0));
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  Codelet first = make_codelet("first", tagger(1));
  Codelet second = make_codelet("second", tagger(2));
  Codelet third = make_codelet("third", tagger(3));

  // Three tasks on disjoint data: only the explicit edges order them.
  std::vector<double> a(1), b(1), c(1);
  DataHandle* ha = engine.register_vector(a.data(), 1);
  DataHandle* hb = engine.register_vector(b.data(), 1);
  DataHandle* hc = engine.register_vector(c.data(), 1);

  const TaskId t1 = engine.submit(TaskDesc{&first, {{ha, Access::kWrite}}});
  TaskDesc d2{&second, {{hb, Access::kWrite}}};
  d2.depends_on = {t1};
  const TaskId t2 = engine.submit(std::move(d2));
  TaskDesc d3{&third, {{hc, Access::kWrite}}};
  d3.depends_on = {t1, t2};
  engine.submit(std::move(d3));
  EXPECT_TRUE(engine.wait_all().ok());

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ExplicitDependencyOnCompletedOrUnknownTaskIsSatisfied) {
  Engine engine(EngineConfig::cpus(1));
  std::vector<double> a(1);
  DataHandle* h = engine.register_vector(a.data(), 1);
  Codelet c = make_codelet("c", [](const ExecContext& ctx) {
    ctx.buffer(0)[0] += 1.0;
  });
  const TaskId done = engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());

  TaskDesc desc{&c, {{h, Access::kReadWrite}}};
  desc.depends_on = {done, 424242, 0};  // completed + unknown + invalid
  engine.submit(std::move(desc));
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_DOUBLE_EQ(a[0], 2.0);
}

TEST(Engine, HostWriteInvalidatesDeviceReplicas) {
  EngineConfig config;
  DeviceSpec accel;
  accel.kind = DeviceKind::kAccelerator;
  accel.name = "gpu";
  config.devices.push_back(accel);
  Engine engine(std::move(config));

  std::vector<double> data(64, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet reader = make_codelet("r", [](const ExecContext&) {},
                                DeviceKind::kAccelerator);
  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().transfers, 1u);

  // Without host_write a second read reuses the replica; after a declared
  // host write it must transfer again.
  engine.host_write(h);
  EXPECT_TRUE(h->valid_on(kHostNode));
  EXPECT_FALSE(h->valid_on(1));
  engine.submit(TaskDesc{&reader, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().transfers, 2u);
}

TEST(Engine, StatsAccumulatePerDevice) {
  Engine engine(EngineConfig::cpus(2));
  std::vector<double> a(1), b(1);
  DataHandle* ha = engine.register_vector(a.data(), 1);
  DataHandle* hb = engine.register_vector(b.data(), 1);
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  for (int i = 0; i < 10; ++i) {
    engine.submit(TaskDesc{&c, {{i % 2 ? ha : hb, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, 10u);
  std::uint64_t total = 0;
  for (const auto& d : stats.devices) total += d.tasks_run;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(stats.trace.size(), 10u);
}

TEST(Engine, WatchdogRejectsAttemptsExceedingModeledEstimate) {
  // Pure sim: exec cost == model estimate + injected delay, so the
  // watchdog decision is deterministic. A 1 s delay on attempt 1 blows the
  // max(0.01 s, estimate * slack) limit; attempt 2 runs undelayed and fits.
  EngineConfig config = EngineConfig::cpus(1, /*sustained_gflops=*/1.0);
  config.mode = ExecutionMode::kPureSim;
  config.fault_tolerance.watchdog_slack = 2.0;
  auto plan = FaultPlan::parse("delay:ms=1000,task=1,attempts=1");
  ASSERT_TRUE(plan.ok());
  config.fault_plan =
      std::make_shared<const FaultPlan>(std::move(plan).value());
  Engine engine(std::move(config));

  std::vector<double> data(8, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  c.flops = [](const std::vector<BufferView>&) { return 1e6; };  // ~1 ms
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.task_failures, 1u);
  EXPECT_EQ(stats.retries, 1u);
  bool saw_timeout_event = false;
  for (const auto& e : stats.fault_events) {
    if (e.kind == FaultEvent::Kind::kTimeout) saw_timeout_event = true;
  }
  EXPECT_TRUE(saw_timeout_event);
}

TEST(Engine, WatchdogOffByDefault) {
  // Same delayed task, default config: the delay is just slow, not fatal.
  EngineConfig config = EngineConfig::cpus(1, 1.0);
  config.mode = ExecutionMode::kPureSim;
  auto plan = FaultPlan::parse("delay:ms=1000");
  ASSERT_TRUE(plan.ok());
  config.fault_plan =
      std::make_shared<const FaultPlan>(std::move(plan).value());
  Engine engine(std::move(config));
  std::vector<double> data(8, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c = make_codelet("c", [](const ExecContext&) {});
  engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  EXPECT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.task_failures, 0u);
  EXPECT_GE(stats.makespan_seconds, 1.0);  // the delay is on the clock
}

/// A 50-task read-write chain on three accelerators. The codelet runs only
/// on accelerators and declares its flops, so every cost is modeled in
/// either mode and the threaded run has nothing measured to differ by.
EngineStats run_accelerator_chain(ExecutionMode mode, SchedulerKind scheduler) {
  EngineConfig config;
  for (int i = 0; i < 3; ++i) {
    DeviceSpec accel;
    accel.name = "acc" + std::to_string(i);
    accel.kind = DeviceKind::kAccelerator;
    accel.sustained_gflops = 100.0;
    config.devices.push_back(accel);
  }
  config.mode = mode;
  config.scheduler = scheduler;
  Engine engine(std::move(config));
  std::vector<double> data(64, 0.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet step = make_codelet(
      "step", [](const ExecContext& ctx) { ctx.buffer(0)[0] += 1.0; },
      DeviceKind::kAccelerator);
  step.flops = [](const std::vector<BufferView>&) { return 1e6; };
  for (int i = 0; i < 50; ++i) {
    engine.submit(TaskDesc{&step, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  if (mode == ExecutionMode::kHybrid) {
    EXPECT_EQ(data[0], 50.0);
  }
  return engine.stats();
}

TEST(Engine, ThreadedChainPlacementMatchesPureSim) {
  for (const SchedulerKind kind :
       {SchedulerKind::kEager, SchedulerKind::kWorkStealing, SchedulerKind::kHeft}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    const EngineStats sim = run_accelerator_chain(ExecutionMode::kPureSim, kind);
    const EngineStats threaded = run_accelerator_chain(ExecutionMode::kHybrid, kind);
    ASSERT_EQ(sim.trace.size(), 50u);
    ASSERT_EQ(threaded.trace.size(), 50u);
    for (std::size_t i = 0; i < sim.trace.size(); ++i) {
      const TaskTrace& want = sim.trace[i];
      const TaskTrace& got = threaded.trace[i];
      ASSERT_EQ(got.id, want.id) << i;
      EXPECT_EQ(got.device, want.device) << "task " << want.id;
      // The simulation charges the perf model's moving average, which may
      // differ from the declared rate in the last bits.
      EXPECT_NEAR(got.start_vtime, want.start_vtime, 1e-9 * want.start_vtime)
          << "task " << want.id;
      EXPECT_NEAR(got.finish_vtime, want.finish_vtime, 1e-9 * want.finish_vtime)
          << "task " << want.id;
    }
  }
}

// The registry's starvm.* samples are one finished run's totals: a threaded
// engine that retries a failed attempt leaves, once it ends, exactly what
// its EngineStats holds.
TEST(Engine, PublishedMetricsMatchTheThreadedRunsStats) {
  obs::Registry::global().reset();
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  EngineStats stats;
  {
    EngineConfig config = EngineConfig::cpus(4);
    config.mode = ExecutionMode::kHybrid;
    config.fault_plan = std::make_shared<const FaultPlan>(
        FaultPlan::parse("fail:task=5,attempts=1").value());
    Engine engine(std::move(config));
    std::vector<double> data(64, 0.0);
    DataHandle* h = engine.register_vector(data.data(), data.size());
    Codelet bump =
        make_codelet("bump", [](const ExecContext& ctx) { ctx.buffer(0)[0] += 1.0; });
    for (DataHandle* block : engine.partition_vector(h, 64)) {
      engine.submit(TaskDesc{&bump, {{block, Access::kReadWrite}}});
    }
    EXPECT_TRUE(engine.wait_all().ok());
    stats = engine.stats();
  }
  obs::set_metrics_enabled(metrics_were_on);

  ASSERT_EQ(stats.tasks_completed, 64u);
  EXPECT_EQ(stats.task_failures, 1u);
  const auto counted = [](const char* name) { return obs::counter(name).value(); };
  EXPECT_EQ(counted("starvm.tasks_submitted"), stats.tasks_submitted);
  EXPECT_EQ(counted("starvm.tasks_completed"), stats.tasks_completed);
  EXPECT_EQ(counted("starvm.transfers"), stats.transfers);
  EXPECT_EQ(counted("starvm.evictions"), stats.evictions);
  EXPECT_EQ(counted("starvm.task_failures"), stats.task_failures);
  EXPECT_EQ(counted("starvm.task_timeouts"), stats.timeouts);
  EXPECT_EQ(counted("starvm.task_retries"), stats.retries);
  EXPECT_EQ(counted("starvm.device_blacklists"), stats.devices_blacklisted);
  // Every attempt begins with a decision and ends completed or failed.
  EXPECT_EQ(counted("starvm.decisions.heft"),
            stats.tasks_completed + stats.task_failures);
  EXPECT_EQ(obs::histogram("starvm.task_exec_us").count(), stats.trace.size());
}

}  // namespace
}  // namespace starvm
