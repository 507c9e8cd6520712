#pragma once
// Wire format for the scheduler-as-a-service front-end (net/service.hpp).
//
// A tiny append-only binary codec: little-endian PODs (the in-process world
// never crosses an endianness boundary; a real transport would add
// byte-swapping here) and u32-length-prefixed strings, wrapped by typed
// encode_*/decode_* entry points for the service's payloads — DAGs, tenant
// configs, submit options and run results.
//
// WHAT A SERIALIZED DAG CARRIES. Per node: task type, priority, cost-model
// params (p0..p2), rank, affinity hint and stats phase; then the node's
// out-edges (consumer id + release delay). The WORK CLOSURE IS NOT
// SERIALIZED — a WorkFn is host code. Remote submission therefore targets
// executors whose engines never call it: the DES charges registered cost
// models only, which is exactly what makes "run it over there" reproduce
// "run it here" bit-for-bit (tests/net_service_test.cpp). Submitting a
// decoded DAG to a real-thread executor requires work closures to be
// re-attached by the server from a registry of named kernels — a documented
// follow-up, not this layer's job.
//
// Decode validates structure (magic, version, bounds) via DAS_CHECK and is
// tolerant of trailing bytes — payloads may be framed inside larger
// messages. It checks the declared node and edge counts against the bytes
// actually present before reserving anything, so a forged header fails as
// a PreconditionError, not as a huge allocation.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/dag.hpp"
#include "exec/session.hpp"
#include "util/assert.hpp"

namespace das::net {

/// Append-only encode buffer.
class WireWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &v, sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    const std::size_t at = bytes_.size();
    bytes_.resize(at + s.size());
    if (!s.empty()) std::memcpy(bytes_.data() + at, s.data(), s.size());
  }

  const std::byte* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Cursor over an encoded buffer; DAS_CHECKs against overruns.
class WireReader {
 public:
  WireReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::byte>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    DAS_CHECK_MSG(at_ + sizeof(T) <= size_, "wire: truncated payload");
    T v;
    std::memcpy(&v, data_ + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  std::string str() {
    const auto n = pod<std::uint32_t>();
    DAS_CHECK_MSG(at_ + n <= size_, "wire: truncated string");
    std::string s(reinterpret_cast<const char*>(data_ + at_), n);
    at_ += n;
    return s;
  }

  void skip(std::size_t n) {
    DAS_CHECK_MSG(n <= size_ - at_, "wire: truncated payload");
    at_ += n;
  }
  std::size_t remaining() const { return size_ - at_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

// --- DAG ------------------------------------------------------------------

/// Appends `dag` (sealed or not; encode seals it) to `w`.
void encode_dag(const Dag& dag, WireWriter& w);
/// Decodes one DAG; throws PreconditionError on a malformed payload.
Dag decode_dag(WireReader& r);

// --- service payloads -----------------------------------------------------

void encode_tenant_config(const TenantConfig& cfg, WireWriter& w);
TenantConfig decode_tenant_config(WireReader& r);

void encode_submit_options(const SubmitOptions& opts, WireWriter& w);
SubmitOptions decode_submit_options(WireReader& r);

/// The RunResult subset that crosses the wire: scalars + names. Per-rank
/// stats snapshots and the timeline stay server-side (they describe the
/// server's engine, and a client wanting them should ask the server, which
/// owns the accumulation contract).
struct WireRunResult {
  double makespan_s = 0.0;
  double tasks_per_s = 0.0;
  std::int64_t tasks = 0;
  std::int64_t job = -1;
  double arrival_s = 0.0;
  double queue_s = 0.0;
  std::string tenant;
  std::uint8_t backend = 0;
  std::uint8_t policy = 0;
  /// RunResult::Outcome as a byte (0 = kOk, 1 = kRejected).
  std::uint8_t outcome = 0;
  /// Tasks the server's engine re-executed after fail-stops (fault layer).
  std::int64_t tasks_reexecuted = 0;

  bool ok() const { return outcome == 0; }
};

void encode_run_result(const WireRunResult& r, WireWriter& w);
WireRunResult decode_run_result(WireReader& r);

}  // namespace das::net
