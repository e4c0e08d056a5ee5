#include "orb/wire.h"

#include <cstdio>
#include <cstdlib>

#include "orb/errors.h"

namespace adapt::orb {

namespace {

enum class ValueTag : uint8_t {
  Nil = 0,
  False = 1,
  True = 2,
  Number = 3,
  String = 4,
  Table = 5,
  ObjRef = 6,
};

void encode_value_rec(ByteWriter& w, const Value& v, int depth) {
  if (depth > kMaxValueDepth) {
    throw SerializationError("value nesting exceeds wire limit (cyclic table?)");
  }
  switch (v.type()) {
    case Value::Type::Nil:
      w.u8(static_cast<uint8_t>(ValueTag::Nil));
      return;
    case Value::Type::Bool:
      w.u8(static_cast<uint8_t>(v.as_bool() ? ValueTag::True : ValueTag::False));
      return;
    case Value::Type::Number:
      w.u8(static_cast<uint8_t>(ValueTag::Number));
      w.f64(v.as_number());
      return;
    case Value::Type::String:
      w.u8(static_cast<uint8_t>(ValueTag::String));
      w.str(v.as_string());
      return;
    case Value::Type::Table: {
      w.u8(static_cast<uint8_t>(ValueTag::Table));
      const Table& t = *v.as_table();
      w.u32(static_cast<uint32_t>(t.size()));
      for (const auto& [key, val] : t) {
        encode_value_rec(w, key.to_value(), depth + 1);
        encode_value_rec(w, val, depth + 1);
      }
      return;
    }
    case Value::Type::Object: {
      const ObjectRef& ref = v.as_object();
      w.u8(static_cast<uint8_t>(ValueTag::ObjRef));
      w.str(ref.endpoint);
      w.str(ref.object_id);
      w.str(ref.interface);
      return;
    }
    case Value::Type::Function:
      throw SerializationError(
          "functions cannot cross the wire; ship source code strings instead "
          "(remote evaluation)");
  }
  throw SerializationError("unknown value type");
}

Value decode_value_rec(ByteReader& r, int depth) {
  if (depth > kMaxValueDepth) {
    throw SerializationError("value nesting exceeds wire limit");
  }
  const auto tag = static_cast<ValueTag>(r.u8());
  switch (tag) {
    case ValueTag::Nil: return {};
    case ValueTag::False: return Value(false);
    case ValueTag::True: return Value(true);
    case ValueTag::Number: return Value(r.f64());
    case ValueTag::String: return Value(r.str());
    case ValueTag::Table: {
      const uint32_t n = r.u32();
      auto t = Table::make();
      for (uint32_t i = 0; i < n; ++i) {
        Value key = decode_value_rec(r, depth + 1);
        Value val = decode_value_rec(r, depth + 1);
        t->set(key, std::move(val));
      }
      return Value(std::move(t));
    }
    case ValueTag::ObjRef: {
      ObjectRef ref;
      ref.endpoint = r.str();
      ref.object_id = r.str();
      ref.interface = r.str();
      return Value(std::move(ref));
    }
  }
  throw SerializationError("unknown wire tag " + std::to_string(static_cast<int>(tag)));
}

}  // namespace

void encode_value(ByteWriter& w, const Value& v) { encode_value_rec(w, v, 0); }

Value decode_value(ByteReader& r) { return decode_value_rec(r, 0); }

void RequestMessage::set_context(std::string_view key, std::string value) {
  if (key == kTraceparentKey) {
    traceparent = std::move(value);
  } else if (key == kDeadlineKey) {
    char* end = nullptr;
    const double secs = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && secs > 0.0 && secs < 1e12) deadline = secs;
  } else if (key == kCriticalKey) {
    critical = value == "1" || value == "true";
  } else {
    context.emplace_back(std::string(key), std::move(value));
  }
}

namespace {

/// Shortest round-trippable decimal for the deadline entry. %.9g keeps ~1ns
/// resolution at second scale, plenty for a queueing budget.
std::string format_deadline(double secs) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", secs);
  return buf;
}

}  // namespace

Bytes encode_request(const RequestMessage& req) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(MsgType::Request));
  w.u64(req.request_id);
  w.u8(req.oneway ? 1 : 0);
  w.str(req.object_id);
  w.str(req.operation);
  w.u32(static_cast<uint32_t>(req.args.size()));
  for (const Value& arg : req.args) encode_value(w, arg);
  if (req.has_context()) {
    // v2 optional tail (see RequestMessage::context). Omitted when empty so
    // context-free requests stay bit-identical to the v1 encoding.
    uint32_t entries = static_cast<uint32_t>(req.context.size());
    if (!req.traceparent.empty()) ++entries;
    if (req.deadline > 0.0) ++entries;
    if (req.critical) ++entries;
    w.u32(entries);
    if (!req.traceparent.empty()) {
      w.str(RequestMessage::kTraceparentKey);
      w.str(req.traceparent);
    }
    if (req.deadline > 0.0) {
      w.str(RequestMessage::kDeadlineKey);
      w.str(format_deadline(req.deadline));
    }
    if (req.critical) {
      w.str(RequestMessage::kCriticalKey);
      w.str("1");
    }
    for (const auto& [key, value] : req.context) {
      w.str(key);
      w.str(value);
    }
  }
  return w.take();
}

Bytes encode_reply(const ReplyMessage& rep) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(MsgType::Reply));
  w.u64(rep.request_id);
  w.u8(static_cast<uint8_t>(rep.status));
  encode_value(w, rep.result);
  return w.take();
}

MsgType peek_type(const Bytes& payload) {
  if (payload.empty()) throw SerializationError("empty message");
  const auto t = static_cast<MsgType>(payload[0]);
  if (t != MsgType::Request && t != MsgType::Reply) {
    throw SerializationError("unknown message type");
  }
  return t;
}

RequestMessage decode_request(const Bytes& payload) {
  ByteReader r(payload);
  if (static_cast<MsgType>(r.u8()) != MsgType::Request) {
    throw SerializationError("not a request message");
  }
  RequestMessage req;
  req.request_id = r.u64();
  req.oneway = r.u8() != 0;
  req.object_id = r.str();
  req.operation = r.str();
  const uint32_t argc = r.u32();
  // Every encoded value takes at least its one-byte tag, so a count above
  // the bytes left is a lie; reserving it would let a 22-byte frame ask for
  // hundreds of gigabytes.
  if (argc > r.remaining()) throw SerializationError("argument count exceeds frame");
  req.args.reserve(argc);
  for (uint32_t i = 0; i < argc; ++i) req.args.push_back(decode_value(r));
  if (!r.done()) {
    // v2 optional tail; a v1 frame ends right after the args.
    const uint32_t entries = r.u32();
    for (uint32_t i = 0; i < entries; ++i) {
      std::string key = r.str();
      req.set_context(key, r.str());
    }
  }
  if (!r.done()) throw SerializationError("trailing bytes in request");
  return req;
}

ReplyMessage decode_reply(const Bytes& payload) {
  ByteReader r(payload);
  if (static_cast<MsgType>(r.u8()) != MsgType::Reply) {
    throw SerializationError("not a reply message");
  }
  ReplyMessage rep;
  rep.request_id = r.u64();
  rep.status = static_cast<ReplyStatus>(r.u8());
  rep.result = decode_value(r);
  if (!r.done()) throw SerializationError("trailing bytes in reply");
  return rep;
}

}  // namespace adapt::orb
