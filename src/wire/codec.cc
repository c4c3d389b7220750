#include "wire/codec.h"

#include <algorithm>
#include <vector>

#include "common/binary_io.h"
#include "engine/result_io.h"
#include "storage/predicate.h"

namespace tsb {
namespace wire {

namespace {

constexpr char kMagic0 = 'T';
constexpr char kMagic1 = 'W';
constexpr size_t kHeaderBytes = kFrameHeaderBytes;
static_assert(kFrameHeaderBytes == 2 + 1 + 1 + 4,
              "magic, version, kind, len");

/// Appends a frame header and returns the frame's start offset, so
/// frames can be encoded back-to-back into one send buffer; EndFrame
/// patches the length field relative to that offset.
size_t BeginFrame(MessageKind kind, std::string* out) {
  const size_t start = out->size();
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  PutU8(out, kWireVersion);
  PutU8(out, static_cast<uint8_t>(kind));
  PutU32(out, 0);  // Payload length, patched by EndFrame.
  return start;
}

void EndFrame(size_t start, std::string* out) {
  const uint32_t payload =
      static_cast<uint32_t>(out->size() - start - kHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + kHeaderBytes - 4 + i] =
        static_cast<char>((payload >> (8 * i)) & 0xff);
  }
}

/// Validates the header and hands back the payload slice. The caller
/// holds the complete message, so kIncomplete is truncation (malformed),
/// and trailing bytes beyond the framed length are rejected too.
Result<std::string_view> OpenFrame(std::string_view frame,
                                   MessageKind expected) {
  FrameHeader header;
  const FrameError error =
      InspectFrame(frame, /*max_payload_bytes=*/frame.size(), &header);
  if (error != FrameError::kOk) return FrameErrorToStatus(error);
  if (header.kind != expected) {
    return Status::InvalidArgument(
        "wire frame: kind " +
        std::to_string(static_cast<uint8_t>(header.kind)) + ", expected " +
        std::to_string(static_cast<uint8_t>(expected)));
  }
  if (frame.size() != header.frame_bytes) {
    return Status::InvalidArgument(
        "wire frame: payload length mismatch (header says " +
        std::to_string(header.payload_bytes) + ", got " +
        std::to_string(frame.size() - kHeaderBytes) + ")");
  }
  return frame.substr(kHeaderBytes);
}

void EncodePredicateField(const storage::PredicateRef& pred,
                          std::string* out) {
  if (pred == nullptr) {
    PutBool(out, false);
    return;
  }
  PutBool(out, true);
  pred->EncodeWire(out);
}

Result<storage::PredicateRef> DecodePredicateField(
    const storage::Catalog& db, const std::string& entity_set,
    BinaryReader* in) {
  if (!in->Bool()) return storage::PredicateRef(nullptr);
  const storage::EntitySetDef* def = db.FindEntitySet(entity_set);
  if (def == nullptr) {
    return Status::NotFound("unknown entity set '" + entity_set + "'");
  }
  const storage::Table* table = db.FindTable(def->table_name);
  if (table == nullptr) {
    return Status::Internal("entity set '" + entity_set +
                            "' has no backing table");
  }
  return storage::DecodePredicate(table->schema(), in);
}

}  // namespace

const char* FrameErrorToString(FrameError error) {
  switch (error) {
    case FrameError::kOk:
      return "ok";
    case FrameError::kIncomplete:
      return "incomplete";
    case FrameError::kMalformedFrame:
      return "malformed frame";
    case FrameError::kUnsupportedVersion:
      return "unsupported version";
  }
  return "unknown";
}

FrameError InspectFrame(std::string_view buffer, size_t max_payload_bytes,
                        FrameHeader* header) {
  // Validate strictly byte-by-byte so a prefix that can still grow into a
  // valid frame is kIncomplete, and one that cannot is rejected at the
  // first offending byte — a reader never waits for more bytes of a frame
  // that is already hopeless.
  if (!buffer.empty() && buffer[0] != kMagic0) {
    return FrameError::kMalformedFrame;
  }
  if (buffer.size() >= 2 && buffer[1] != kMagic1) {
    return FrameError::kMalformedFrame;
  }
  if (buffer.size() >= 3 && static_cast<uint8_t>(buffer[2]) != kWireVersion) {
    return FrameError::kUnsupportedVersion;
  }
  if (buffer.size() >= 4 &&
      static_cast<uint8_t>(buffer[3]) >
          static_cast<uint8_t>(MessageKind::kMutationResponse)) {
    return FrameError::kMalformedFrame;
  }
  if (buffer.size() < kFrameHeaderBytes) return FrameError::kIncomplete;

  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[4 + i]))
              << (8 * i);
  }
  if (length > max_payload_bytes) return FrameError::kMalformedFrame;
  if (header != nullptr) {
    header->version = static_cast<uint8_t>(buffer[2]);
    header->kind = static_cast<MessageKind>(static_cast<uint8_t>(buffer[3]));
    header->payload_bytes = length;
    header->frame_bytes = kFrameHeaderBytes + length;
  }
  if (buffer.size() < kFrameHeaderBytes + length) {
    return FrameError::kIncomplete;
  }
  return FrameError::kOk;
}

Status FrameErrorToStatus(FrameError error) {
  switch (error) {
    case FrameError::kOk:
      return Status::OK();
    case FrameError::kIncomplete:
      return Status::InvalidArgument("wire frame: truncated");
    case FrameError::kMalformedFrame:
      return Status::InvalidArgument(
          "wire frame: malformed (bad magic, unknown kind, or oversized "
          "length)");
    case FrameError::kUnsupportedVersion:
      return Status::Unimplemented("wire frame: unsupported version");
  }
  return Status::Internal("wire frame: unknown frame error");
}

Result<MessageKind> PeekMessageKind(std::string_view frame) {
  FrameHeader header;
  const FrameError error = InspectFrame(frame, frame.size(), &header);
  if (error != FrameError::kOk) return FrameErrorToStatus(error);
  return header.kind;
}

void EncodeQueryRequest(const WireRequest& request, std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kQueryRequest, out);
  PutU64(out, request.id);
  PutU8(out, static_cast<uint8_t>(request.priority));
  PutF64(out, request.deadline_seconds);

  PutString(out, request.query.entity_set1);
  EncodePredicateField(request.query.pred1, out);
  PutString(out, request.query.entity_set2);
  EncodePredicateField(request.query.pred2, out);
  PutU8(out, static_cast<uint8_t>(request.query.scheme));
  PutU64(out, request.query.k);
  PutBool(out, request.query.exclude_weak);

  PutU8(out, static_cast<uint8_t>(request.method));

  PutU32(out, static_cast<uint32_t>(request.options.dgj_algs.size()));
  for (engine::DgjAlg alg : request.options.dgj_algs) {
    PutU8(out, static_cast<uint8_t>(alg));
  }
  PutU32(out, static_cast<uint32_t>(request.options.et_side_order.size()));
  for (size_t side : request.options.et_side_order) {
    PutU64(out, side);
  }
  PutBool(out, request.options.skip_pruned_checks);
  PutBool(out, request.options.use_columnar);
  PutU64(out, request.trace.trace_id);
  PutU64(out, request.trace.parent_span_id);
  PutBool(out, request.trace.sampled);
  EndFrame(frame, out);
}

Result<WireRequest> DecodeQueryRequest(std::string_view frame,
                                       const storage::Catalog& db) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kQueryRequest));
  BinaryReader in(payload);
  WireRequest request;
  request.id = in.U64();
  const uint8_t priority = in.U8();
  if (priority >= kNumPriorities) {
    return Status::InvalidArgument("wire request: bad priority " +
                                   std::to_string(priority));
  }
  request.priority = static_cast<Priority>(priority);
  request.deadline_seconds = in.F64();

  request.query.entity_set1 = in.String();
  TSB_ASSIGN_OR_RETURN(
      request.query.pred1,
      DecodePredicateField(db, request.query.entity_set1, &in));
  request.query.entity_set2 = in.String();
  TSB_ASSIGN_OR_RETURN(
      request.query.pred2,
      DecodePredicateField(db, request.query.entity_set2, &in));
  const uint8_t scheme = in.U8();
  if (scheme > static_cast<uint8_t>(core::RankScheme::kDomain)) {
    return Status::InvalidArgument("wire request: bad rank scheme " +
                                   std::to_string(scheme));
  }
  request.query.scheme = static_cast<core::RankScheme>(scheme);
  request.query.k = in.U64();
  request.query.exclude_weak = in.Bool();

  const uint8_t method = in.U8();
  if (method > static_cast<uint8_t>(engine::MethodKind::kFastTopKOpt)) {
    return Status::InvalidArgument("wire request: bad method " +
                                   std::to_string(method));
  }
  request.method = static_cast<engine::MethodKind>(method);

  const uint32_t num_algs = in.U32();
  for (uint32_t i = 0; i < num_algs && in.ok(); ++i) {
    const uint8_t alg = in.U8();
    if (alg > static_cast<uint8_t>(engine::DgjAlg::kHdgj)) {
      return Status::InvalidArgument("wire request: bad DGJ algorithm");
    }
    request.options.dgj_algs.push_back(static_cast<engine::DgjAlg>(alg));
  }
  // et_side_order defaults to {0, 1}; replace it with the wire image.
  // Strictly validated (two sides, values 0/1): the engine CHECK-fails on
  // anything else, and a decode error must never become a process abort.
  const uint32_t num_sides = in.U32();
  if (num_sides != 2) {
    return Status::InvalidArgument(
        "wire request: et_side_order must have exactly 2 entries, got " +
        std::to_string(num_sides));
  }
  request.options.et_side_order.clear();
  for (uint32_t i = 0; i < num_sides && in.ok(); ++i) {
    const uint64_t side = in.U64();
    if (side > 1) {
      return Status::InvalidArgument("wire request: bad ET side " +
                                     std::to_string(side));
    }
    request.options.et_side_order.push_back(static_cast<size_t>(side));
  }
  request.options.skip_pruned_checks = in.Bool();
  request.options.use_columnar = in.Bool();
  request.trace.trace_id = in.U64();
  request.trace.parent_span_id = in.U64();
  request.trace.sampled = in.Bool();
  if (!in.AtEnd()) return in.status("query request payload");
  return request;
}

void EncodeQueryResponse(const WireResponse& response, std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kQueryResponse, out);
  PutU64(out, response.request_id);
  PutString(out, response.serving_stamp);
  PutU8(out, static_cast<uint8_t>(response.error.code));
  PutString(out, response.error.message);
  engine::EncodeQueryResult(response.result, out);
  PutBool(out, response.from_cache);
  PutF64(out, response.service_seconds);
  // Piggybacked responder spans, then the result's resource bill.
  obs::EncodeSpans(response.spans, out);
  PutU64(out, response.result.stats.cpu_ns);
  PutU64(out, response.result.stats.bytes_deserialized);
  PutU64(out, response.result.stats.catalog_interns);
  PutU64(out, response.result.stats.heap_bytes);
  EndFrame(frame, out);
}

Result<WireResponse> DecodeQueryResponse(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kQueryResponse));
  BinaryReader in(payload);
  WireResponse response;
  response.request_id = in.U64();
  response.serving_stamp = in.String();
  const uint8_t code = in.U8();
  if (code > static_cast<uint8_t>(WireErrorCode::kInternal)) {
    return Status::InvalidArgument("wire response: bad error code " +
                                   std::to_string(code));
  }
  response.error.code = static_cast<WireErrorCode>(code);
  response.error.message = in.String();
  TSB_ASSIGN_OR_RETURN(response.result, engine::DecodeQueryResult(&in));
  response.from_cache = in.Bool();
  response.service_seconds = in.F64();
  TSB_RETURN_IF_ERROR(obs::DecodeSpans(&in, &response.spans));
  response.result.stats.cpu_ns = in.U64();
  response.result.stats.bytes_deserialized = in.U64();
  response.result.stats.catalog_interns = in.U64();
  response.result.stats.heap_bytes = in.U64();
  if (!in.AtEnd()) return in.status("query response payload");
  return response;
}

Result<std::string> PeekResponseStamp(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kQueryResponse));
  BinaryReader in(payload);
  in.U64();  // request_id
  std::string stamp = in.String();
  if (!in.ok()) return in.status("query response stamp");
  return stamp;
}

void EncodeTripleCollectRequest(const engine::TripleSelection& selection,
                                std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kTripleCollectRequest, out);
  for (int s = 0; s < 3; ++s) {
    const engine::TripleSelection::Slot& slot = selection.slots[s];
    PutString(out, slot.def != nullptr ? slot.def->name : std::string());
    // Canonical order: the selection set is unordered in memory.
    std::vector<int64_t> ids(slot.selected.begin(), slot.selected.end());
    std::sort(ids.begin(), ids.end());
    PutU32(out, static_cast<uint32_t>(ids.size()));
    for (int64_t id : ids) PutI64(out, id);
  }
  for (int p = 0; p < 3; ++p) {
    PutU8(out, static_cast<uint8_t>(selection.slot_pairs[p].lo));
    PutU8(out, static_cast<uint8_t>(selection.slot_pairs[p].hi));
  }
  EndFrame(frame, out);
}

Result<engine::TripleSelection> DecodeTripleCollectRequest(
    std::string_view frame, const storage::Catalog& db) {
  TSB_ASSIGN_OR_RETURN(
      std::string_view payload,
      OpenFrame(frame, MessageKind::kTripleCollectRequest));
  BinaryReader in(payload);
  engine::TripleSelection selection;
  for (int s = 0; s < 3; ++s) {
    const std::string name = in.String();
    if (!in.ok()) return in.status("triple-collect slot");
    const storage::EntitySetDef* def = db.FindEntitySet(name);
    if (def == nullptr) {
      return Status::NotFound("unknown entity set '" + name + "'");
    }
    selection.slots[s].def = def;
    const uint32_t n = in.U32();
    for (uint32_t i = 0; i < n && in.ok(); ++i) {
      selection.slots[s].selected.insert(in.I64());
    }
  }
  for (int p = 0; p < 3; ++p) {
    const uint8_t lo = in.U8();
    const uint8_t hi = in.U8();
    if (lo > 2 || hi > 2) {
      return Status::InvalidArgument("triple-collect: bad slot pair");
    }
    selection.slot_pairs[p].lo = lo;
    selection.slot_pairs[p].hi = hi;
  }
  if (!in.AtEnd()) return in.status("triple-collect request payload");
  return selection;
}

void EncodeTripleCollectResponse(const engine::TripleRelatedSets& related,
                                 std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kTripleCollectResponse, out);
  engine::EncodeTripleRelatedSets(related, out);
  EndFrame(frame, out);
}

Result<engine::TripleRelatedSets> DecodeTripleCollectResponse(
    std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(
      std::string_view payload,
      OpenFrame(frame, MessageKind::kTripleCollectResponse));
  BinaryReader in(payload);
  TSB_ASSIGN_OR_RETURN(engine::TripleRelatedSets related,
                       engine::DecodeTripleRelatedSets(&in));
  if (!in.AtEnd()) return in.status("triple-collect response payload");
  return related;
}

void EncodeAdminRequest(const AdminRequest& request, std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kAdminRequest, out);
  PutU8(out, static_cast<uint8_t>(request.command));
  EndFrame(frame, out);
}

Result<AdminRequest> DecodeAdminRequest(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kAdminRequest));
  BinaryReader in(payload);
  AdminRequest request;
  const uint8_t command = in.U8();
  if (!in.ok()) return in.status("admin request payload");
  if (command > kMaxAdminCommand) {
    return Status::InvalidArgument("admin request: bad command " +
                                   std::to_string(command));
  }
  request.command = static_cast<AdminCommand>(command);
  if (!in.AtEnd()) return in.status("admin request payload");
  return request;
}

void EncodeAdminResponse(const AdminResponse& response, std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kAdminResponse, out);
  PutU8(out, static_cast<uint8_t>(response.error.code));
  PutString(out, response.error.message);
  PutString(out, response.body);
  EndFrame(frame, out);
}

Result<AdminResponse> DecodeAdminResponse(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kAdminResponse));
  BinaryReader in(payload);
  AdminResponse response;
  const uint8_t code = in.U8();
  if (code > static_cast<uint8_t>(WireErrorCode::kInternal)) {
    return Status::InvalidArgument("admin response: bad error code " +
                                   std::to_string(code));
  }
  response.error.code = static_cast<WireErrorCode>(code);
  response.error.message = in.String();
  response.body = in.String();
  if (!in.AtEnd()) return in.status("admin response payload");
  return response;
}

void EncodeMutationRequest(const MutationWireRequest& request,
                           std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kMutationRequest, out);
  PutU64(out, request.id);
  std::string batch;
  mutation::EncodeMutationBatch(request.batch, &batch);
  PutString(out, batch);
  EndFrame(frame, out);
}

Result<MutationWireRequest> DecodeMutationRequest(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kMutationRequest));
  BinaryReader in(payload);
  MutationWireRequest request;
  request.id = in.U64();
  const std::string batch = in.String();
  if (!in.ok()) return in.status("mutation request payload");
  TSB_ASSIGN_OR_RETURN(request.batch, mutation::DecodeMutationBatch(batch));
  if (!in.AtEnd()) return in.status("mutation request payload");
  return request;
}

void EncodeMutationResponse(const MutationWireResponse& response,
                            std::string* out) {
  const size_t frame = BeginFrame(MessageKind::kMutationResponse, out);
  PutU64(out, response.request_id);
  PutU8(out, static_cast<uint8_t>(response.error.code));
  PutString(out, response.error.message);
  PutU64(out, response.applied_ops);
  PutU64(out, response.dirty_pairs);
  PutF64(out, response.apply_seconds);
  EndFrame(frame, out);
}

Result<MutationWireResponse> DecodeMutationResponse(std::string_view frame) {
  TSB_ASSIGN_OR_RETURN(std::string_view payload,
                       OpenFrame(frame, MessageKind::kMutationResponse));
  BinaryReader in(payload);
  MutationWireResponse response;
  response.request_id = in.U64();
  const uint8_t code = in.U8();
  if (!in.ok()) return in.status("mutation response payload");
  if (code > static_cast<uint8_t>(WireErrorCode::kInternal)) {
    return Status::InvalidArgument("mutation response: bad error code " +
                                   std::to_string(code));
  }
  response.error.code = static_cast<WireErrorCode>(code);
  response.error.message = in.String();
  response.applied_ops = in.U64();
  response.dirty_pairs = in.U64();
  response.apply_seconds = in.F64();
  if (!in.AtEnd()) return in.status("mutation response payload");
  return response;
}

}  // namespace wire
}  // namespace tsb
