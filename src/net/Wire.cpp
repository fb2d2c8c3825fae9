//===- net/Wire.cpp ----------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "support/Format.h"

#include <cstring>

using namespace exochi;
using namespace exochi::net;
using namespace exochi::net::wire;

const char *wire::msgTypeName(MsgType T) {
  switch (T) {
  case MsgType::Hello:
    return "hello";
  case MsgType::Surface:
    return "surface";
  case MsgType::Submit:
    return "submit";
  case MsgType::Run:
    return "run";
  case MsgType::Drain:
    return "drain";
  case MsgType::StatsReq:
    return "stats-req";
  case MsgType::Fetch:
    return "fetch";
  case MsgType::Bye:
    return "bye";
  case MsgType::Welcome:
    return "welcome";
  case MsgType::Result:
    return "result";
  case MsgType::SurfaceData:
    return "surface-data";
  case MsgType::DrainDone:
    return "drain-done";
  case MsgType::StatsJson:
    return "stats-json";
  case MsgType::Error:
    return "error";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

void Writer::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

bool Reader::need(size_t Bytes) {
  if (!Err.empty())
    return false;
  if (N - Off < Bytes) {
    Err = formatString("truncated body: need %zu bytes at offset %zu of %zu",
                       Bytes, Off, N);
    return false;
  }
  return true;
}

void Reader::fail(const std::string &Why) {
  if (Err.empty())
    Err = Why;
}

uint8_t Reader::u8() {
  if (!need(1))
    return 0;
  return P[Off++];
}

uint16_t Reader::u16() {
  if (!need(2))
    return 0;
  uint16_t V = static_cast<uint16_t>(P[Off]) |
               static_cast<uint16_t>(P[Off + 1]) << 8;
  Off += 2;
  return V;
}

uint32_t Reader::u32() {
  if (!need(4))
    return 0;
  uint32_t V = static_cast<uint32_t>(P[Off]) |
               static_cast<uint32_t>(P[Off + 1]) << 8 |
               static_cast<uint32_t>(P[Off + 2]) << 16 |
               static_cast<uint32_t>(P[Off + 3]) << 24;
  Off += 4;
  return V;
}

uint64_t Reader::u64() {
  uint64_t Lo = u32();
  uint64_t Hi = u32();
  return Lo | Hi << 32;
}

double Reader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string Reader::str(uint32_t MaxLen) {
  uint32_t Len = u32();
  if (!ok())
    return {};
  if (Len > MaxLen) {
    fail(formatString("string of %u bytes exceeds the %u-byte cap", Len,
                      MaxLen));
    return {};
  }
  if (!need(Len))
    return {};
  std::string S(reinterpret_cast<const char *>(P + Off), Len);
  Off += Len;
  return S;
}

std::vector<uint8_t> Reader::blob(uint32_t MaxLen) {
  uint32_t Len = u32();
  if (!ok())
    return {};
  if (Len > MaxLen) {
    fail(formatString("blob of %u bytes exceeds the %u-byte cap", Len,
                      MaxLen));
    return {};
  }
  if (!need(Len))
    return {};
  std::vector<uint8_t> B(P + Off, P + Off + Len);
  Off += Len;
  return B;
}

uint32_t Reader::count(uint32_t MaxElems) {
  uint32_t C = u32();
  if (ok() && C > MaxElems)
    fail(formatString("list of %u elements exceeds the %u-element cap", C,
                      MaxElems));
  return ok() ? C : 0;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wire::frame(MsgType T, const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Out(HeaderBytes + Body.size());
  std::memcpy(Out.data(), Magic, 4);
  Writer W;
  W.u16(Version);
  W.u16(static_cast<uint16_t>(T));
  W.u32(static_cast<uint32_t>(Body.size()));
  std::memcpy(Out.data() + 4, W.bytes().data(), HeaderBytes - 4);
  if (!Body.empty())
    std::memcpy(Out.data() + HeaderBytes, Body.data(), Body.size());
  return Out;
}

void FrameParser::feed(const uint8_t *P, size_t N) {
  if (!Err.empty())
    return; // poisoned streams buffer nothing further
  if (Head >= CompactBytes) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Head));
    Head = 0;
  }
  Buf.insert(Buf.end(), P, P + N);
}

void FrameParser::poison(std::string Why) {
  Err = std::move(Why);
  // A poisoned stream never parses again; drop what was buffered so a
  // hostile peer's bytes are not held for the connection's lifetime.
  std::vector<uint8_t>().swap(Buf);
  Head = 0;
}

std::optional<Frame> FrameParser::next() {
  if (!Err.empty() || buffered() < HeaderBytes)
    return std::nullopt;

  const uint8_t *Hdr = Buf.data() + Head;
  if (std::memcmp(Hdr, Magic, 4) != 0) {
    poison(formatString("bad magic 0x%02x%02x%02x%02x (not 'XNET')", Hdr[0],
                        Hdr[1], Hdr[2], Hdr[3]));
    return std::nullopt;
  }
  Reader R(Hdr + 4, HeaderBytes - 4);
  uint16_t Ver = R.u16();
  uint16_t Type = R.u16();
  uint32_t Len = R.u32();
  if (Ver != Version) {
    poison(formatString("unsupported wire version %u (speaking %u)", Ver,
                        Version));
    return std::nullopt;
  }
  if (Len > MaxBodyBytes) {
    poison(formatString("oversized frame body: %u bytes (cap %u)", Len,
                        MaxBodyBytes));
    return std::nullopt;
  }
  if (buffered() < HeaderBytes + Len)
    return std::nullopt; // need more bytes

  Frame F;
  F.Type = static_cast<MsgType>(Type);
  F.Body.assign(Hdr + HeaderBytes, Hdr + HeaderBytes + Len);
  Head += HeaderBytes + Len;
  if (Head == Buf.size()) { // all consumed: reuse the storage from the top
    Buf.clear();
    Head = 0;
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Message encoders
//===----------------------------------------------------------------------===//

namespace {

void putSurface(Writer &W, const SurfaceMsg &M) {
  W.str(M.Name);
  W.u32(M.Width);
  W.u32(M.Height);
  W.u8(M.Mode);
  W.u8(static_cast<uint8_t>(M.Fill));
  if (M.Fill == SurfaceFill::Data)
    W.blob(M.Data);
}

} // namespace

std::vector<uint8_t> wire::encode(const HelloMsg &M) {
  Writer W;
  W.u16(M.WireVersion);
  W.str(M.ClientName);
  W.u64(M.SessionId);
  W.u8(M.Flags);
  return frame(MsgType::Hello, W.take());
}

std::vector<uint8_t> wire::encode(const WelcomeMsg &M) {
  Writer W;
  W.u16(M.WireVersion);
  W.u32(M.ClientId);
  W.u8(M.Resumed);
  return frame(MsgType::Welcome, W.take());
}

std::vector<uint8_t> wire::encode(const SurfaceMsg &M) {
  Writer W;
  putSurface(W, M);
  return frame(MsgType::Surface, W.take());
}

std::vector<uint8_t> wire::encode(const SubmitMsg &M) {
  Writer W;
  W.u64(M.Tag);
  W.u8(M.Pri);
  W.u8(M.Flags);
  W.u32(M.Attempt);
  W.i64(M.ExpiresAtUnixNs);
  W.i64(M.DeadlineCycles);
  W.u32(M.Shreds);
  W.str(M.Kernel);
  W.u32(static_cast<uint32_t>(M.Params.size()));
  for (const ParamArg &P : M.Params) {
    W.str(P.Name);
    W.u8(static_cast<uint8_t>(P.Kind));
    W.i32(P.Value);
  }
  W.u32(static_cast<uint32_t>(M.Bind.size()));
  for (const std::string &B : M.Bind)
    W.str(B);
  W.u32(static_cast<uint32_t>(M.Uploads.size()));
  for (const SurfaceMsg &S : M.Uploads)
    putSurface(W, S);
  return frame(MsgType::Submit, W.take());
}

std::vector<uint8_t> wire::encode(const RunMsg &M) {
  Writer W;
  W.u32(M.MaxJobs);
  return frame(MsgType::Run, W.take());
}

std::vector<uint8_t> wire::encode(const DrainMsg &M) {
  Writer W;
  W.u8(M.Cancel);
  return frame(MsgType::Drain, W.take());
}

std::vector<uint8_t> wire::encode(const FetchMsg &M) {
  Writer W;
  W.str(M.Name);
  return frame(MsgType::Fetch, W.take());
}

std::vector<uint8_t> wire::encode(const ByeMsg &) {
  return frame(MsgType::Bye, {});
}

std::vector<uint8_t> wire::encode(const ResultMsg &M) {
  Writer W;
  W.u64(M.Tag);
  W.u32(M.JobId);
  W.u8(M.State);
  W.u8(M.Reason);
  W.u8(M.Replayed);
  W.u32(M.BatchSize);
  W.u64(M.ShredsPreempted);
  W.f64(M.SubmitNs);
  W.f64(M.StartNs);
  W.f64(M.EndNs);
  W.str(M.Error);
  W.u32(static_cast<uint32_t>(M.Shards.size()));
  for (const gma::ShardStat &S : M.Shards) {
    W.u32(S.Lane);
    W.u8(S.HostLane ? 1 : 0);
    W.u64(S.Shreds);
    W.u64(S.Stolen);
  }
  return frame(MsgType::Result, W.take());
}

std::vector<uint8_t> wire::encode(const SurfaceDataMsg &M) {
  Writer W;
  W.str(M.Name);
  W.u32(M.Width);
  W.u32(M.Height);
  W.blob(M.Data);
  return frame(MsgType::SurfaceData, W.take());
}

std::vector<uint8_t> wire::encode(const DrainDoneMsg &M) {
  Writer W;
  W.str(M.Json);
  return frame(MsgType::DrainDone, W.take());
}

std::vector<uint8_t> wire::encode(const StatsJsonMsg &M) {
  Writer W;
  W.str(M.Json);
  return frame(MsgType::StatsJson, W.take());
}

std::vector<uint8_t> wire::encode(const ErrorMsg &M) {
  Writer W;
  W.str(M.Reason);
  return frame(MsgType::Error, W.take());
}

//===----------------------------------------------------------------------===//
// Message decoders
//===----------------------------------------------------------------------===//

namespace {

/// Finishes a strict decode: success only when every byte was consumed.
template <typename T> Expected<T> finish(Reader &R, T &&M, const char *What) {
  if (!R.ok())
    return Error::make(formatString("malformed %s: %s", What,
                                    R.error().c_str()));
  if (!R.done())
    return Error::make(formatString("malformed %s: trailing bytes", What));
  return std::move(M);
}

SurfaceMsg getSurface(Reader &R) {
  SurfaceMsg M;
  M.Name = R.str();
  M.Width = R.u32();
  M.Height = R.u32();
  M.Mode = R.u8();
  uint8_t Fill = R.u8();
  if (R.ok() && M.Mode > 2)
    R.fail(formatString("surface mode byte %u out of range", M.Mode));
  if (R.ok() && Fill > 2)
    R.fail(formatString("surface fill byte %u out of range", Fill));
  M.Fill = static_cast<SurfaceFill>(Fill);
  if (R.ok() && M.Fill == SurfaceFill::Data)
    M.Data = R.blob();
  if (R.ok() && (M.Width == 0 || M.Height == 0))
    R.fail("surface with a zero dimension");
  if (R.ok() &&
      static_cast<uint64_t>(M.Width) * M.Height * 4 > MaxSurfaceDataBytes)
    R.fail(formatString("surface %ux%u exceeds the payload cap", M.Width,
                        M.Height));
  if (R.ok() && M.Fill == SurfaceFill::Data &&
      M.Data.size() != static_cast<uint64_t>(M.Width) * M.Height * 4)
    R.fail(formatString("surface data is %zu bytes for a %ux%u surface",
                        M.Data.size(), M.Width, M.Height));
  return M;
}

} // namespace

Expected<HelloMsg> wire::decodeHello(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  HelloMsg M;
  M.WireVersion = R.u16();
  M.ClientName = R.str();
  M.SessionId = R.u64();
  M.Flags = R.u8();
  if (R.ok() && (M.Flags & ~HelloResumable) != 0)
    R.fail(formatString("hello flags byte 0x%02x has unknown bits", M.Flags));
  if (R.ok() && (M.Flags & HelloResumable) && M.SessionId == 0)
    R.fail("resumable hello with a zero session id");
  return finish(R, std::move(M), "hello");
}

Expected<WelcomeMsg> wire::decodeWelcome(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  WelcomeMsg M;
  M.WireVersion = R.u16();
  M.ClientId = R.u32();
  M.Resumed = R.u8();
  if (R.ok() && M.Resumed > 1)
    R.fail(formatString("welcome resumed byte %u out of range", M.Resumed));
  return finish(R, std::move(M), "welcome");
}

Expected<SurfaceMsg> wire::decodeSurface(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  SurfaceMsg M = getSurface(R);
  return finish(R, std::move(M), "surface");
}

Expected<SubmitMsg> wire::decodeSubmit(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  SubmitMsg M;
  M.Tag = R.u64();
  M.Pri = R.u8();
  M.Flags = R.u8();
  M.Attempt = R.u32();
  M.ExpiresAtUnixNs = R.i64();
  M.DeadlineCycles = R.i64();
  M.Shreds = R.u32();
  M.Kernel = R.str();
  if (R.ok() && M.Pri > 2)
    R.fail(formatString("priority byte %u out of range", M.Pri));
  if (R.ok() && M.Shreds == 0)
    R.fail("job with zero shreds");
  if (R.ok() && M.ExpiresAtUnixNs < 0)
    R.fail("negative absolute deadline");
  uint32_t NumParams = R.count();
  for (uint32_t K = 0; R.ok() && K < NumParams; ++K) {
    ParamArg P;
    P.Name = R.str();
    uint8_t Kind = R.u8();
    if (R.ok() && Kind > 2)
      R.fail(formatString("param kind byte %u out of range", Kind));
    P.Kind = static_cast<ParamKind>(Kind);
    P.Value = R.i32();
    M.Params.push_back(std::move(P));
  }
  uint32_t NumBind = R.count();
  for (uint32_t K = 0; R.ok() && K < NumBind; ++K)
    M.Bind.push_back(R.str());
  uint32_t NumUp = R.count();
  for (uint32_t K = 0; R.ok() && K < NumUp; ++K)
    M.Uploads.push_back(getSurface(R));
  return finish(R, std::move(M), "submit");
}

Expected<RunMsg> wire::decodeRun(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  RunMsg M;
  M.MaxJobs = R.u32();
  return finish(R, std::move(M), "run");
}

Expected<DrainMsg> wire::decodeDrain(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  DrainMsg M;
  M.Cancel = R.u8();
  if (R.ok() && M.Cancel > 1)
    R.fail(formatString("drain cancel byte %u out of range", M.Cancel));
  return finish(R, std::move(M), "drain");
}

Expected<FetchMsg> wire::decodeFetch(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  FetchMsg M;
  M.Name = R.str();
  return finish(R, std::move(M), "fetch");
}

Expected<ByeMsg> wire::decodeBye(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  return finish(R, ByeMsg{}, "bye");
}

Expected<ResultMsg> wire::decodeResult(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  ResultMsg M;
  M.Tag = R.u64();
  M.JobId = R.u32();
  M.State = R.u8();
  M.Reason = R.u8();
  M.Replayed = R.u8();
  if (R.ok() && M.Replayed > 1)
    R.fail(formatString("result replayed byte %u out of range", M.Replayed));
  M.BatchSize = R.u32();
  M.ShredsPreempted = R.u64();
  M.SubmitNs = R.f64();
  M.StartNs = R.f64();
  M.EndNs = R.f64();
  M.Error = R.str();
  uint32_t NumShards = R.count(MaxShardRows);
  for (uint32_t K = 0; R.ok() && K < NumShards; ++K) {
    gma::ShardStat S;
    S.Lane = R.u32();
    uint8_t Host = R.u8();
    if (R.ok() && Host > 1)
      R.fail(formatString("shard host byte %u out of range", Host));
    S.HostLane = Host != 0;
    S.Shreds = R.u64();
    S.Stolen = R.u64();
    M.Shards.push_back(S);
  }
  return finish(R, std::move(M), "result");
}

Expected<SurfaceDataMsg>
wire::decodeSurfaceData(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  SurfaceDataMsg M;
  M.Name = R.str();
  M.Width = R.u32();
  M.Height = R.u32();
  M.Data = R.blob();
  return finish(R, std::move(M), "surface-data");
}

Expected<DrainDoneMsg>
wire::decodeDrainDone(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  DrainDoneMsg M;
  M.Json = R.str(MaxStringBytes);
  return finish(R, std::move(M), "drain-done");
}

Expected<StatsJsonMsg>
wire::decodeStatsJson(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  StatsJsonMsg M;
  M.Json = R.str(MaxStringBytes);
  return finish(R, std::move(M), "stats-json");
}

Expected<ErrorMsg> wire::decodeError(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  ErrorMsg M;
  M.Reason = R.str();
  return finish(R, std::move(M), "error");
}
