// Micro-benchmarks of the messaging substrate (§3.2/§3.3): context
// serialization, inbox priority-queue operations, and flow-control
// credit acquire/release — the per-hop overheads of remote edges.
#include <benchmark/benchmark.h>

#include "common/config.h"
#include "net/network.h"
#include "runtime/context.h"

namespace {

using namespace rpqd;

void BM_EncodeContext(benchmark::State& state) {
  const auto num_slots = static_cast<std::size_t>(state.range(0));
  std::vector<Value> slots(num_slots, int_value(42));
  std::vector<std::byte> payload;
  payload.reserve(1 << 16);
  std::size_t bytes = 0;
  for (auto _ : state) {
    payload.clear();
    BinaryWriter writer(payload);
    ContextCodecState codec;
    encode_context(writer, codec, 123456, 0xabcdef, slots);
    benchmark::DoNotOptimize(payload.data());
    bytes = payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeContext)->Arg(0)->Arg(4)->Arg(16);

void BM_DecodeContext(benchmark::State& state) {
  const auto num_slots = static_cast<std::size_t>(state.range(0));
  std::vector<Value> slots(num_slots, int_value(42));
  std::vector<std::byte> payload;
  BinaryWriter writer(payload);
  ContextCodecState enc;
  encode_context(writer, enc, 123456, 0xabcdef, slots);
  for (auto _ : state) {
    BinaryReader reader(payload);
    VertexId v;
    std::uint64_t rpid;
    std::vector<Value> out;
    ContextCodecState codec;
    decode_context(reader, codec, static_cast<unsigned>(num_slots), v, rpid,
                   out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DecodeContext)->Arg(0)->Arg(4)->Arg(16);

void BM_EncodeContextBatch(benchmark::State& state) {
  // A full outbound buffer: 64 contexts with nearby vertex ids and
  // sequential rpids — the case the delta codec is built for. Reports
  // bytes/context via SetBytesProcessed.
  const auto num_slots = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 64;
  std::vector<Value> slots(num_slots, int_value(42));
  std::vector<std::byte> payload;
  payload.reserve(1 << 16);
  std::size_t bytes = 0;
  for (auto _ : state) {
    payload.clear();
    BinaryWriter writer(payload);
    ContextCodecState codec;
    for (std::size_t i = 0; i < kBatch; ++i) {
      encode_context(writer, codec, 123456 + i * 3,
                     0x0102000000000000ULL + i, slots);
    }
    benchmark::DoNotOptimize(payload.data());
    bytes = payload.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
  state.counters["bytes/ctx"] =
      benchmark::Counter(static_cast<double>(bytes) / kBatch);
}
BENCHMARK(BM_EncodeContextBatch)->Arg(0)->Arg(4);

void BM_InboxPushPop(benchmark::State& state) {
  Network net(1);
  std::uint32_t depth = 0;
  for (auto _ : state) {
    Message m;
    m.header.type = MessageType::kData;
    m.header.stage = 3;
    m.header.depth = (depth++) % 12;
    m.header.count = 1;
    m.payload.resize(64);
    net.send(0, std::move(m));
    benchmark::DoNotOptimize(net.inbox(0).try_pop_data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InboxPushPop);

void BM_InboxPriorityBurst(benchmark::State& state) {
  // Push a burst of mixed depths, then drain in priority order.
  Network net(1);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      Message m;
      m.header.type = MessageType::kData;
      m.header.stage = static_cast<StageId>(i % 7);
      m.header.depth = (i * 13) % 17;
      m.header.count = 1;
      net.send(0, std::move(m));
    }
    while (auto msg = net.inbox(0).try_pop_data()) {
      benchmark::DoNotOptimize(msg->header.depth);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_InboxPriorityBurst);

void BM_FlowControlAcquireRelease(benchmark::State& state) {
  EngineConfig cfg;
  cfg.buffers_per_machine = 1024;
  FlowControl fc(cfg, 4, {false, true, true, false});
  for (auto _ : state) {
    const auto credit = fc.try_acquire(2, 1, 3);
    benchmark::DoNotOptimize(credit);
    if (credit) fc.release(2, 1, 3, *credit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowControlAcquireRelease);

void BM_FlowControlContended(benchmark::State& state) {
  // All threads hammer the same (dest, stage, depth) — the worst case
  // for the old global mutex, a CAS ping-pong for the atomic counters.
  static FlowControl* fc = nullptr;
  if (state.thread_index() == 0) {
    delete fc;
    EngineConfig cfg;
    cfg.buffers_per_machine = 4096;
    fc = new FlowControl(cfg, 4, {false, true, true, false});
  }
  for (auto _ : state) {
    const auto credit = fc->try_acquire(2, 1, 3);
    benchmark::DoNotOptimize(credit);
    if (credit) fc->release(2, 1, 3, *credit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowControlContended)->Threads(1)->Threads(2)->Threads(4);

void BM_DoneDelivery(benchmark::State& state) {
  EngineConfig cfg;
  FlowControl fc(cfg, 2, {false});
  Network net(2);
  net.inbox(0).attach_flow_control(&fc);
  const auto credit = fc.try_acquire(1, 0, 0);
  for (auto _ : state) {
    Message done;
    done.header.type = MessageType::kDone;
    done.header.src = 1;
    done.header.stage = 0;
    done.header.credit = *credit;
    done.header.credit_depth = 0;
    net.send(0, std::move(done));       // releases the credit
    benchmark::DoNotOptimize(fc.try_acquire(1, 0, 0));  // re-take it
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DoneDelivery);

}  // namespace

BENCHMARK_MAIN();
