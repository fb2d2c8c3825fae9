//===- net/Wire.h - ExoNet binary wire protocol ------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExoNet wire protocol: compact length-prefixed binary frames that
/// carry ExoServe job traffic between off-process clients and the
/// serving stack (DESIGN.md §13).
///
/// Every frame is
///
///   +------+---------+--------+---------+----------------+
///   | 'XNET' (4B)    | u16 ver| u16 type| u32 body bytes | body ...
///   +------+---------+--------+---------+----------------+
///
/// with all multi-byte integers little-endian on the wire regardless of
/// host order. Parsing is strict and total: a frame with a bad magic,
/// unknown version, oversized length, truncated body, or out-of-bounds
/// string/blob is rejected with a reason — the parser never reads past
/// its input, never allocates unboundedly, and never crashes. Streams
/// are self-synchronizing only at connection granularity: after a
/// malformed frame the connection is poisoned (FrameParser::error()
/// stays set) and the peer is expected to close it.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_NET_WIRE_H
#define EXOCHI_NET_WIRE_H

#include "gma/Gma.h"
#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace exochi {
namespace net {
namespace wire {

/// The four magic bytes opening every frame ("XNET").
constexpr uint8_t Magic[4] = {'X', 'N', 'E', 'T'};
/// Protocol version spoken by this build. A server answers a mismatched
/// Hello with an Error frame and closes. v2 appended the per-shard rows
/// to Result frames (ExoCluster); v3 added the NetChaos exactly-once
/// fields: the Hello session id + resumable flag, the Welcome resumed
/// acknowledgement, the Submit {Attempt, ExpiresAtUnixNs} idempotency /
/// deadline pair, and the Result replayed marker.
constexpr uint16_t Version = 3;
/// Frame header size: magic + version + type + body length.
constexpr size_t HeaderBytes = 12;
/// Hard cap on a frame body. Oversized lengths are rejected at the
/// header, before any buffering, so a hostile peer cannot balloon
/// server memory with one 12-byte header.
constexpr uint32_t MaxBodyBytes = 16u << 20;
/// Cap on one length-prefixed string inside a body.
constexpr uint32_t MaxStringBytes = 4096;
/// Cap on one inline surface payload (bytes).
constexpr uint32_t MaxSurfaceDataBytes = 8u << 20;
/// Cap on list element counts (params, surfaces) inside one message.
constexpr uint32_t MaxListElems = 1024;
/// Cap on per-shard rows inside one Result frame (devices + host lane).
constexpr uint32_t MaxShardRows = 256;

/// Frame types. Client-to-server types start at 1, server-to-client at
/// 64; an endpoint receiving a frame from the wrong half treats it as
/// malformed.
enum class MsgType : uint16_t {
  // client -> server
  Hello = 1,    ///< open a session (client name), answered by Welcome
  Surface = 2,  ///< declare/update a named per-client surface
  Submit = 3,   ///< submit one job (answered by Result when terminal)
  Run = 4,      ///< run up to N of the sender's held jobs now
  Drain = 5,    ///< drain the server (graceful or cancelling)
  StatsReq = 6, ///< request the serve/net stats JSON
  Fetch = 7,    ///< read back a named surface (answered by SurfaceData)
  Bye = 8,      ///< orderly goodbye; the server closes the connection

  // server -> client
  Welcome = 64,     ///< session open: assigned client id
  Result = 65,      ///< terminal answer for one submitted job
  SurfaceData = 66, ///< surface readback payload
  DrainDone = 67,   ///< DrainSummary JSON after a Drain
  StatsJson = 68,   ///< stats JSON after a StatsReq
  Error = 69,       ///< protocol-level error; the connection is closing
};

/// Display name of \p T (e.g. "submit"), "?" for unknown values.
const char *msgTypeName(MsgType T);

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

/// Append-only little-endian encoder for frame bodies.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) {
    u8(static_cast<uint8_t>(V));
    u8(static_cast<uint8_t>(V >> 8));
  }
  void u32(uint32_t V) {
    u16(static_cast<uint16_t>(V));
    u16(static_cast<uint16_t>(V >> 16));
  }
  void u64(uint64_t V) {
    u32(static_cast<uint32_t>(V));
    u32(static_cast<uint32_t>(V >> 32));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// IEEE-754 bits, little-endian (TimeNs values).
  void f64(double V);
  /// u32 length + raw bytes.
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  /// u32 length + raw bytes.
  void blob(const std::vector<uint8_t> &B) {
    u32(static_cast<uint32_t>(B.size()));
    Buf.insert(Buf.end(), B.begin(), B.end());
  }

  std::vector<uint8_t> take() { return std::move(Buf); }
  const std::vector<uint8_t> &bytes() const { return Buf; }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian decoder over a frame body. Every read
/// either succeeds or records the first failure reason; reads after a
/// failure are no-ops, so decoders can be written straight-line and
/// check ok() once at the end.
class Reader {
public:
  Reader(const uint8_t *P, size_t N) : P(P), N(N) {}
  explicit Reader(const std::vector<uint8_t> &B) : Reader(B.data(), B.size()) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64();
  /// u32 length + bytes, capped at \p MaxLen.
  std::string str(uint32_t MaxLen = MaxStringBytes);
  std::vector<uint8_t> blob(uint32_t MaxLen = MaxSurfaceDataBytes);
  /// u32 element count, capped at \p MaxElems.
  uint32_t count(uint32_t MaxElems = MaxListElems);

  bool ok() const { return Err.empty(); }
  /// True when every body byte was consumed (strict decoders require
  /// this: trailing garbage is a malformed frame, not padding).
  bool done() const { return ok() && Off == N; }
  const std::string &error() const { return Err; }
  /// Records a decode failure (also used by message decoders for
  /// semantic violations, e.g. an out-of-range enum byte).
  void fail(const std::string &Why);

private:
  bool need(size_t Bytes);

  const uint8_t *P;
  size_t N;
  size_t Off = 0;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Frames & the incremental stream parser
//===----------------------------------------------------------------------===//

struct Frame {
  MsgType Type = MsgType::Error;
  std::vector<uint8_t> Body;
};

/// Wraps \p Body in a frame header of type \p T.
std::vector<uint8_t> frame(MsgType T, const std::vector<uint8_t> &Body);

/// Incremental frame parser over a byte stream (one per connection).
/// feed() appends received bytes; next() yields completed frames in
/// order. The first malformed header (bad magic, unknown version,
/// oversized body) poisons the parser: error() becomes non-empty and
/// next() never yields again — the owner must close the connection.
///
/// The bytes live in one contiguous buffer read from an offset, so a
/// frame body leaves with a single memcpy. The consumed prefix is
/// dropped when the buffer empties, and otherwise by feed() once it
/// passes CompactBytes: a long stream reuses the same storage.
class FrameParser {
public:
  void feed(const uint8_t *P, size_t N);
  void feed(const std::vector<uint8_t> &B) { feed(B.data(), B.size()); }

  /// The next complete frame, or nullopt when more bytes are needed
  /// (or the stream is poisoned — check error()).
  std::optional<Frame> next();

  const std::string &error() const { return Err; }
  bool poisoned() const { return !Err.empty(); }
  /// Bytes buffered but not yet consumed (partial frame).
  size_t buffered() const { return Buf.size() - Head; }
  /// Bytes the buffer holds: buffered() plus a consumed prefix of less
  /// than CompactBytes before the last feed().
  size_t held() const { return Buf.size(); }

  /// Consumed bytes feed() lets sit in front of the unconsumed ones
  /// before moving those to the front of the buffer.
  static constexpr size_t CompactBytes = 64u << 10;

private:
  /// Records the failure and discards the buffer (a poisoned stream
  /// never parses again).
  void poison(std::string Why);

  std::vector<uint8_t> Buf;
  size_t Head = 0; ///< first unconsumed byte of Buf
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

/// Hello flags.
enum HelloFlags : uint8_t {
  /// The client may reconnect and resume this session: on an abrupt
  /// disconnect the server keeps the session (surfaces, in-flight jobs,
  /// dedup cache) detached instead of cancelling it, until the client
  /// reattaches with the same SessionId or the detached-session bound
  /// evicts it. Without this flag, disconnect semantics are the
  /// pre-NetChaos ones: queued jobs are cancelled, results dropped.
  HelloResumable = 1u << 0,
};

struct HelloMsg {
  uint16_t WireVersion = Version;
  std::string ClientName;
  /// Client-session UUID (wire v3): a client-chosen 64-bit identity.
  /// Reconnecting with the same id reattaches to the server-side
  /// session; 0 means "fresh session, never resumable".
  uint64_t SessionId = 0;
  uint8_t Flags = 0;
};

/// The HelloAck: acknowledges the handshake with the server-assigned
/// identity and whether an existing session was resumed.
struct WelcomeMsg {
  uint16_t WireVersion = Version;
  uint32_t ClientId = 0;
  /// 1 when the Hello's SessionId matched a live/detached session and
  /// this connection reattached to it (wire v3). The client's surfaces
  /// and in-flight jobs survived; 0 means a fresh session (after an
  /// eviction the client must re-declare surfaces).
  uint8_t Resumed = 0;
};

/// How a declared surface is initialized.
enum class SurfaceFill : uint8_t {
  Data = 0, ///< explicit bytes in SurfaceMsg::Data (W*H*4 bytes)
  Zero = 1,
  Seq = 2, ///< element index pattern (matches exochi-run's `seq`)
};

/// Declare-or-update one named per-client surface. Redeclaring an
/// existing name with the same shape updates its contents in place
/// (the descriptor is reused, which is what makes submit bursts over
/// the same surfaces coalescable); reshaping is a protocol error.
struct SurfaceMsg {
  std::string Name;
  uint32_t Width = 0, Height = 1;
  uint8_t Mode = 2; ///< gma::SurfaceMode value (0 in, 1 out, 2 inout)
  SurfaceFill Fill = SurfaceFill::Zero;
  std::vector<uint8_t> Data; ///< used when Fill == Data
};

/// How one scalar kernel parameter is produced per shred.
enum class ParamKind : uint8_t {
  Value = 0,       ///< firstprivate constant broadcast to every shred
  Shred = 1,       ///< the shred's index within this job
  ShredOffset = 2, ///< shred index + Value (lets small jobs tile a range)
};

struct ParamArg {
  std::string Name;
  ParamKind Kind = ParamKind::Value;
  int32_t Value = 0;
};

/// Submit flags.
enum SubmitFlags : uint8_t {
  /// Queue the job but do not run it until the client sends Run (or the
  /// server drains). The hold/run/drain discipline makes a served
  /// workload replay bit-identically (DESIGN.md §13).
  SubmitHold = 1u << 0,
};

/// One job: header + params + inline surface payloads.
struct SubmitMsg {
  uint64_t Tag = 0; ///< client-chosen correlation id, echoed in Result
  uint8_t Pri = 1;  ///< serve::Priority value (0 low, 1 normal, 2 high)
  uint8_t Flags = 0;
  /// Retry ordinal (wire v3): 0 for the first transmission, +1 per
  /// client resend. Together with the session id, Tag is the
  /// idempotency key — a Submit whose (session, tag) already has a
  /// terminal answer is replayed from the dedup cache, never
  /// re-dispatched.
  uint32_t Attempt = 0;
  /// Absolute wall-clock deadline in unix nanoseconds (wire v3; 0 =
  /// none). Carried unchanged across retries and re-validated at
  /// admission: a stale retry is rejected with DeadlineExpired instead
  /// of dispatched doomed.
  int64_t ExpiresAtUnixNs = 0;
  int64_t DeadlineCycles = -1;
  uint32_t Shreds = 1;
  std::string Kernel;
  std::vector<ParamArg> Params;
  /// Names of the per-client surfaces this job binds (all of them).
  std::vector<std::string> Bind;
  /// Inline payloads applied (declare-or-update) before the job is
  /// admitted. Uploading to a surface still referenced by queued jobs
  /// overwrites their input — clients sequencing overlapping work must
  /// use distinct names or the hold/run discipline.
  std::vector<SurfaceMsg> Uploads;
};

struct RunMsg {
  uint32_t MaxJobs = 0; ///< 0 = every held job of the sender
};

struct DrainMsg {
  uint8_t Cancel = 0; ///< 1 = cancel queued jobs instead of running them
};

struct FetchMsg {
  std::string Name;
};

struct ByeMsg {};

/// Terminal answer for one job. State/Reason are serve::JobState /
/// serve::RejectReason bytes; Failed carries the dispatch error text.
/// Jobs that never reached admission (unknown surface, bad priority
/// byte) come back as Failed with JobId 0.
struct ResultMsg {
  uint64_t Tag = 0;
  uint32_t JobId = 0;
  uint8_t State = 0;
  uint8_t Reason = 0;
  /// 1 when this Result was answered from the per-session dedup cache
  /// (a retried Submit whose original already finished) instead of a
  /// fresh dispatch (wire v3).
  uint8_t Replayed = 0;
  uint32_t BatchSize = 1; ///< jobs merged into the dispatch that ran this
  uint64_t ShredsPreempted = 0;
  double SubmitNs = 0, StartNs = 0, EndNs = 0;
  std::string Error;
  /// One row per cluster lane that executed shreds of the dispatch that
  /// ran this job (wire v2; empty for rejected/failed jobs). Lane is the
  /// device index, or numDevices() with HostLane set for the IA32 lane.
  /// Only Lane, HostLane, Shreds and Stolen travel on the wire.
  std::vector<gma::ShardStat> Shards;
};

struct SurfaceDataMsg {
  std::string Name;
  uint32_t Width = 0, Height = 1;
  std::vector<uint8_t> Data;
};

struct DrainDoneMsg {
  std::string Json; ///< serve::DrainSummary::toJson()
};

struct StatsJsonMsg {
  std::string Json; ///< combined serve + net stats JSON object
};

struct ErrorMsg {
  std::string Reason;
};

//===----------------------------------------------------------------------===//
// Encode / decode
//===----------------------------------------------------------------------===//
//
// encode() returns a complete frame (header + body); decode() parses a
// frame *body* strictly — every byte consumed, every enum in range.

std::vector<uint8_t> encode(const HelloMsg &M);
std::vector<uint8_t> encode(const WelcomeMsg &M);
std::vector<uint8_t> encode(const SurfaceMsg &M);
std::vector<uint8_t> encode(const SubmitMsg &M);
std::vector<uint8_t> encode(const RunMsg &M);
std::vector<uint8_t> encode(const DrainMsg &M);
std::vector<uint8_t> encode(const FetchMsg &M);
std::vector<uint8_t> encode(const ByeMsg &M);
std::vector<uint8_t> encode(const ResultMsg &M);
std::vector<uint8_t> encode(const SurfaceDataMsg &M);
std::vector<uint8_t> encode(const DrainDoneMsg &M);
std::vector<uint8_t> encode(const StatsJsonMsg &M);
std::vector<uint8_t> encode(const ErrorMsg &M);

Expected<HelloMsg> decodeHello(const std::vector<uint8_t> &Body);
Expected<WelcomeMsg> decodeWelcome(const std::vector<uint8_t> &Body);
Expected<SurfaceMsg> decodeSurface(const std::vector<uint8_t> &Body);
Expected<SubmitMsg> decodeSubmit(const std::vector<uint8_t> &Body);
Expected<RunMsg> decodeRun(const std::vector<uint8_t> &Body);
Expected<DrainMsg> decodeDrain(const std::vector<uint8_t> &Body);
Expected<FetchMsg> decodeFetch(const std::vector<uint8_t> &Body);
Expected<ByeMsg> decodeBye(const std::vector<uint8_t> &Body);
Expected<ResultMsg> decodeResult(const std::vector<uint8_t> &Body);
Expected<SurfaceDataMsg> decodeSurfaceData(const std::vector<uint8_t> &Body);
Expected<DrainDoneMsg> decodeDrainDone(const std::vector<uint8_t> &Body);
Expected<StatsJsonMsg> decodeStatsJson(const std::vector<uint8_t> &Body);
Expected<ErrorMsg> decodeError(const std::vector<uint8_t> &Body);

} // namespace wire
} // namespace net
} // namespace exochi

#endif // EXOCHI_NET_WIRE_H
