// Transport microbenchmark: the same Microbenchmark workload run on the
// real threaded cluster over each wire substrate — direct in-memory
// structs, serialized in-process delivery (the full encode/frame/decode
// path, each packet handed to the receiver and acked on the sending
// thread), loopback TCP, and TCP under fault injection — plus a raw
// wire-format encode/decode throughput row. Quantifies what serialization
// and real sockets cost relative to the seed's zero-copy path.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "net/transport.h"
#include "net/wire.h"
#include "runtime/cluster.h"

namespace tpart::bench {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Row {
  double tps = 0;
  TransportStats stats;
};

Row RunOver(const Workload& w, std::size_t txns, TransportOptions transport) {
  LocalClusterOptions opts;
  opts.scheduler.sink_size = 100;
  opts.transport = transport;
  LocalCluster cluster(&w, opts);
  const auto start = std::chrono::steady_clock::now();
  const ClusterRunOutcome outcome = cluster.RunTPart();
  const double secs = Seconds(std::chrono::steady_clock::now() - start);
  Row row;
  row.tps = static_cast<double>(txns) / secs;
  row.stats = outcome.transport;
  return row;
}

bool g_json = false;

void PrintRow(const char* name, const Row& row) {
  std::printf("%12s %12.0f %10llu %10llu %12llu %10llu %8llu\n", name,
              row.tps,
              static_cast<unsigned long long>(row.stats.messages_sent),
              static_cast<unsigned long long>(row.stats.batches_sent),
              static_cast<unsigned long long>(row.stats.bytes_out),
              static_cast<unsigned long long>(row.stats.packets_out),
              static_cast<unsigned long long>(row.stats.retries));
  if (g_json) {
    JsonRow("transport")
        .Add("transport", std::string(name))
        .Add("tps", row.tps)
        .Add("messages_sent", row.stats.messages_sent)
        .Add("batches_sent", row.stats.batches_sent)
        .Add("bytes_out", row.stats.bytes_out)
        .Add("packets_out", row.stats.packets_out)
        .Add("retries", row.stats.retries)
        .Print();
  }
}

void BenchClusterTransports(std::size_t machines, std::size_t txns) {
  Header("Transport comparison: Microbenchmark on the threaded cluster");
  const Workload w = MakeMicroWorkload(DefaultMicro(machines, txns));
  std::printf("%12s %12s %10s %10s %12s %10s %8s\n", "transport", "tps",
              "msgs", "batches", "bytes out", "packets", "retries");

  TransportOptions direct;  // kDirect
  PrintRow("direct", RunOver(w, txns, direct));

  TransportOptions inproc;
  inproc.kind = TransportKind::kInProcess;
  PrintRow("serialized", RunOver(w, txns, inproc));

  TransportOptions tcp;
  tcp.kind = TransportKind::kTcp;
  PrintRow("tcp", RunOver(w, txns, tcp));

  TransportOptions faulty = tcp;
  faulty.faults.drop_prob = 0.01;
  faulty.faults.duplicate_prob = 0.01;
  faulty.faults.delay_prob = 0.02;
  PrintRow("tcp+faults", RunOver(w, txns, faulty));

  std::printf("(expected: direct > serialized > tcp; faults cost retries, "
              "not correctness)\n");
}

void BenchRawWire() {
  Header("Raw wire format: encode/decode throughput");
  Message msg;
  msg.type = Message::Type::kPushVersion;
  msg.key = 0x123456789AB;
  msg.version = 42;
  msg.dst_txn = 77;
  msg.value = Record({1, -2, 300000000000LL, 4}, /*padding_bytes=*/164);
  const std::string bytes = EncodeMessage(msg);

  constexpr int kIters = 2'000'000;
  auto start = std::chrono::steady_clock::now();
  std::size_t sink = 0;
  for (int i = 0; i < kIters; ++i) {
    sink += EncodeMessage(msg).size();
  }
  const double enc_secs = Seconds(std::chrono::steady_clock::now() - start);

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    auto decoded = DecodeMessage(bytes);
    sink += decoded.ok() ? decoded->key : 0;
  }
  const double dec_secs = Seconds(std::chrono::steady_clock::now() - start);

  std::printf("%12s %14s %14s\n", "", "msgs/sec", "MB/sec");
  std::printf("%12s %14.0f %14.1f\n", "encode", kIters / enc_secs,
              static_cast<double>(kIters) * bytes.size() / enc_secs / 1e6);
  std::printf("%12s %14.0f %14.1f\n", "decode", kIters / dec_secs,
              static_cast<double>(kIters) * bytes.size() / dec_secs / 1e6);
  std::printf("(%zu-byte push-version message; checksum volatile sink=%zu)\n",
              bytes.size(), sink % 10);
}

void Run(int argc, char** argv) {
  const auto txns =
      static_cast<std::size_t>(IntFlag(argc, argv, "txns", 4000));
  const auto machines =
      static_cast<std::size_t>(IntFlag(argc, argv, "machines", 4));
  g_json = BoolFlag(argc, argv, "json");
  BenchClusterTransports(machines, txns);
  BenchRawWire();
}

}  // namespace
}  // namespace tpart::bench

int main(int argc, char** argv) { tpart::bench::Run(argc, argv); }
