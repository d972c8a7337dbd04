#include "io/snapshot.h"

#include <cstdio>
#include <fstream>
#include <sys/stat.h>
#include <unordered_map>

#include "common/str_util.h"
#include "io/coding.h"
#include "obs/log.h"
#include "obs/wait.h"

namespace hirel {

namespace {

// Format v1 ("HIRELDB1"): per relation, a flat tuple list. Format v2
// ("HIRELDB2") adds one storage tag byte per relation. Writers always emit
// v2 with tag 0 and the v1 tuple encoding. The loader also accepts v1 and
// the legacy tag 1, under which a relation was written as a truth bitmap
// plus per-attribute dictionaries and code streams; every relation loads
// into the one TupleStore whatever its tag.
constexpr std::string_view kMagicV1 = "HIRELDB1";
constexpr std::string_view kMagicV2 = "HIRELDB2";
constexpr uint8_t kRowTag = 0;
constexpr uint8_t kLegacyColumnarTag = 1;

uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void PutValue(std::string* dst, const Value& value) {
  PutFixed8(dst, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutFixed8(dst, value.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      // Zigzag so negative ints stay small.
      PutVarint64(dst, (static_cast<uint64_t>(value.AsInt()) << 1) ^
                           static_cast<uint64_t>(value.AsInt() >> 63));
      break;
    case ValueType::kDouble:
      PutDouble(dst, value.AsDouble());
      break;
    case ValueType::kString:
      PutLengthPrefixedString(dst, value.AsString());
      break;
  }
}

Result<Value> GetValue(Decoder& decoder) {
  HIREL_ASSIGN_OR_RETURN(uint8_t tag, decoder.GetFixed8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      HIREL_ASSIGN_OR_RETURN(uint8_t b, decoder.GetFixed8());
      return Value::Bool(b != 0);
    }
    case ValueType::kInt: {
      HIREL_ASSIGN_OR_RETURN(uint64_t zz, decoder.GetVarint64());
      return Value::Int(static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1)));
    }
    case ValueType::kDouble: {
      HIREL_ASSIGN_OR_RETURN(double d, decoder.GetDouble());
      return Value::Double(d);
    }
    case ValueType::kString: {
      HIREL_ASSIGN_OR_RETURN(std::string s, decoder.GetLengthPrefixedString());
      return Value::String(std::move(s));
    }
  }
  return Status::Corruption(StrCat("unknown value tag ", int{tag}));
}

/// old node id -> dense id matching the loader's allocation order.
using NodeRemap = std::vector<NodeId>;

void SerializeHierarchy(const Hierarchy& hierarchy, std::string* dst,
                        NodeRemap* remap) {
  PutLengthPrefixedString(dst, hierarchy.name());
  PutFixed8(dst, hierarchy.options().keep_redundant_edges ? 1 : 0);

  std::vector<NodeId> topo = hierarchy.dag().TopologicalOrder();
  remap->assign(hierarchy.dag().capacity(), kInvalidNode);
  for (size_t i = 0; i < topo.size(); ++i) {
    (*remap)[topo[i]] = static_cast<NodeId>(i);
  }

  // Non-root nodes, topological order (the root is position 0, created by
  // the Hierarchy constructor on load).
  PutVarint64(dst, topo.empty() ? 0 : topo.size() - 1);
  for (size_t i = 1; i < topo.size(); ++i) {
    NodeId n = topo[i];
    PutFixed8(dst, hierarchy.is_class(n) ? 0 : 1);
    if (hierarchy.is_class(n)) {
      PutLengthPrefixedString(dst, hierarchy.ClassName(n));
    } else {
      PutValue(dst, hierarchy.InstanceValue(n));
    }
    const auto& parents = hierarchy.Parents(n);
    PutVarint64(dst, parents.size());
    for (NodeId p : parents) PutVarint32(dst, (*remap)[p]);
  }

  // Preference edges.
  std::string pref;
  size_t pref_count = 0;
  for (NodeId n : hierarchy.Nodes()) {
    for (NodeId s : hierarchy.PreferenceSuccessors(n)) {
      PutVarint32(&pref, (*remap)[n]);
      PutVarint32(&pref, (*remap)[s]);
      ++pref_count;
    }
  }
  PutVarint64(dst, pref_count);
  dst->append(pref);
}

Status DeserializeHierarchy(Decoder& decoder, Database& db) {
  HIREL_ASSIGN_OR_RETURN(std::string name, decoder.GetLengthPrefixedString());
  HIREL_ASSIGN_OR_RETURN(uint8_t keep_redundant, decoder.GetFixed8());
  HierarchyOptions options;
  options.keep_redundant_edges = keep_redundant != 0;
  HIREL_ASSIGN_OR_RETURN(Hierarchy * hierarchy,
                         db.CreateHierarchy(name, options));

  HIREL_ASSIGN_OR_RETURN(uint64_t node_count, decoder.GetVarint64());
  for (uint64_t i = 0; i < node_count; ++i) {
    HIREL_ASSIGN_OR_RETURN(uint8_t kind, decoder.GetFixed8());
    std::string class_name;
    Value value;
    if (kind == 0) {
      HIREL_ASSIGN_OR_RETURN(class_name, decoder.GetLengthPrefixedString());
    } else if (kind == 1) {
      HIREL_ASSIGN_OR_RETURN(value, GetValue(decoder));
    } else {
      return Status::Corruption(StrCat("unknown node kind ", int{kind}));
    }
    HIREL_ASSIGN_OR_RETURN(uint64_t parent_count, decoder.GetVarint64());
    if (parent_count == 0) {
      return Status::Corruption("non-root hierarchy node with no parents");
    }
    NodeId added = kInvalidNode;
    for (uint64_t p = 0; p < parent_count; ++p) {
      HIREL_ASSIGN_OR_RETURN(uint32_t parent, decoder.GetVarint32());
      if (parent >= hierarchy->dag().capacity()) {
        return Status::Corruption("hierarchy parent reference out of range");
      }
      if (p == 0) {
        if (kind == 0) {
          HIREL_ASSIGN_OR_RETURN(added, hierarchy->AddClass(class_name, parent));
        } else {
          HIREL_ASSIGN_OR_RETURN(added, hierarchy->AddInstance(value, parent));
        }
      } else {
        HIREL_RETURN_IF_ERROR(hierarchy->AddEdge(parent, added));
      }
    }
  }

  HIREL_ASSIGN_OR_RETURN(uint64_t pref_count, decoder.GetVarint64());
  for (uint64_t i = 0; i < pref_count; ++i) {
    HIREL_ASSIGN_OR_RETURN(uint32_t weaker, decoder.GetVarint32());
    HIREL_ASSIGN_OR_RETURN(uint32_t stronger, decoder.GetVarint32());
    HIREL_RETURN_IF_ERROR(hierarchy->AddPreferenceEdge(weaker, stronger));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeDatabase(const Database& db) {
  std::string payload;
  std::unordered_map<std::string, NodeRemap> remaps;

  std::vector<std::string> hierarchy_names = db.HierarchyNames();
  PutVarint64(&payload, hierarchy_names.size());
  for (const std::string& name : hierarchy_names) {
    HIREL_ASSIGN_OR_RETURN(const Hierarchy* hierarchy, db.GetHierarchy(name));
    SerializeHierarchy(*hierarchy, &payload, &remaps[name]);
  }

  std::vector<std::string> relation_names = db.RelationNames();
  PutVarint64(&payload, relation_names.size());
  for (const std::string& name : relation_names) {
    HIREL_ASSIGN_OR_RETURN(const HierarchicalRelation* relation,
                           db.GetRelation(name));
    PutLengthPrefixedString(&payload, name);
    const Schema& schema = relation->schema();
    PutVarint64(&payload, schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      PutLengthPrefixedString(&payload, schema.name(i));
      PutLengthPrefixedString(&payload, schema.hierarchy(i)->name());
    }
    PutFixed8(&payload, kRowTag);
    std::vector<TupleId> ids = relation->TupleIds();
    PutVarint64(&payload, ids.size());
    for (TupleId id : ids) {
      TupleView t = relation->tuple(id);
      PutFixed8(&payload, t.truth == Truth::kPositive ? 1 : 0);
      for (size_t i = 0; i < schema.size(); ++i) {
        const NodeRemap& remap = remaps[schema.hierarchy(i)->name()];
        PutVarint32(&payload, remap[t.item[i]]);
      }
    }
  }

  std::string out(kMagicV2);
  out += payload;
  // Checksum trailer over magic + payload.
  uint64_t checksum = Fnv1a(out);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  return out;
}

Result<std::unique_ptr<Database>> DeserializeDatabase(std::string_view data) {
  if (data.size() < kMagicV1.size() + 8) {
    return Status::Corruption("not a hirel snapshot");
  }
  std::string_view magic = data.substr(0, kMagicV1.size());
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption("not a hirel snapshot");
  }
  const bool v2 = magic == kMagicV2;
  std::string_view body = data.substr(0, data.size() - 8);
  std::string_view trailer = data.substr(data.size() - 8);
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(static_cast<uint8_t>(trailer[i]))
              << (8 * i);
  }
  if (Fnv1a(body) != stored) {
    return Status::Corruption("snapshot checksum mismatch");
  }

  Decoder decoder(body.substr(kMagicV1.size()));
  auto db = std::make_unique<Database>();

  HIREL_ASSIGN_OR_RETURN(uint64_t hierarchy_count, decoder.GetVarint64());
  for (uint64_t i = 0; i < hierarchy_count; ++i) {
    HIREL_RETURN_IF_ERROR(DeserializeHierarchy(decoder, *db));
  }

  HIREL_ASSIGN_OR_RETURN(uint64_t relation_count, decoder.GetVarint64());
  for (uint64_t r = 0; r < relation_count; ++r) {
    HIREL_ASSIGN_OR_RETURN(std::string name,
                           decoder.GetLengthPrefixedString());
    HIREL_ASSIGN_OR_RETURN(uint64_t attr_count, decoder.GetVarint64());
    std::vector<std::pair<std::string, std::string>> attributes;
    for (uint64_t i = 0; i < attr_count; ++i) {
      HIREL_ASSIGN_OR_RETURN(std::string attr_name,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(std::string hierarchy_name,
                             decoder.GetLengthPrefixedString());
      attributes.emplace_back(std::move(attr_name), std::move(hierarchy_name));
    }
    uint8_t tag = kRowTag;
    if (v2) {
      HIREL_ASSIGN_OR_RETURN(tag, decoder.GetFixed8());
      if (tag != kRowTag && tag != kLegacyColumnarTag) {
        return Status::Corruption(StrCat("unknown storage tag ", int{tag}));
      }
    }
    HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                           db->CreateRelation(name, attributes));
    HIREL_ASSIGN_OR_RETURN(uint64_t tuple_count, decoder.GetVarint64());
    auto insert = [&](Item item, Truth truth) -> Status {
      Result<TupleId> inserted = relation->Insert(std::move(item), truth);
      if (!inserted.ok()) {
        return Status::Corruption(
            StrCat("snapshot tuple rejected: ", inserted.status().ToString()));
      }
      return Status::OK();
    };
    if (tag == kRowTag) {
      for (uint64_t t = 0; t < tuple_count; ++t) {
        HIREL_ASSIGN_OR_RETURN(uint8_t truth, decoder.GetFixed8());
        Item item(attr_count);
        for (uint64_t i = 0; i < attr_count; ++i) {
          HIREL_ASSIGN_OR_RETURN(uint32_t node, decoder.GetVarint32());
          item[i] = node;
        }
        HIREL_RETURN_IF_ERROR(insert(
            std::move(item),
            truth != 0 ? Truth::kPositive : Truth::kNegative));
      }
    } else {
      std::vector<uint8_t> bitmap((tuple_count + 7) / 8);
      for (size_t i = 0; i < bitmap.size(); ++i) {
        HIREL_ASSIGN_OR_RETURN(bitmap[i], decoder.GetFixed8());
      }
      std::vector<std::vector<uint32_t>> columns(attr_count);
      for (uint64_t attr = 0; attr < attr_count; ++attr) {
        HIREL_ASSIGN_OR_RETURN(uint64_t dict_size, decoder.GetVarint64());
        std::vector<NodeId> dict(dict_size);
        for (uint64_t d = 0; d < dict_size; ++d) {
          HIREL_ASSIGN_OR_RETURN(dict[d], decoder.GetVarint32());
        }
        columns[attr].resize(tuple_count);
        for (uint64_t t = 0; t < tuple_count; ++t) {
          HIREL_ASSIGN_OR_RETURN(uint32_t code, decoder.GetVarint32());
          if (code >= dict_size) {
            return Status::Corruption("columnar code out of dictionary range");
          }
          columns[attr][t] = dict[code];
        }
      }
      for (uint64_t t = 0; t < tuple_count; ++t) {
        Item item(attr_count);
        for (uint64_t i = 0; i < attr_count; ++i) item[i] = columns[i][t];
        Truth truth = (bitmap[t >> 3] >> (t & 7)) & 1 ? Truth::kPositive
                                                      : Truth::kNegative;
        HIREL_RETURN_IF_ERROR(insert(std::move(item), truth));
      }
    }
  }
  if (!decoder.done()) {
    return Status::Corruption("trailing bytes after snapshot payload");
  }
  return db;
}

Status SaveDatabase(const Database& db, const std::string& path) {
  HIREL_ASSIGN_OR_RETURN(std::string data, SerializeDatabase(db));
  std::string tmp = path + ".tmp";
  {
    static obs::WaitEventRegistry::Site& save_site =
        obs::WaitEventRegistry::Global().RegisterSite("snapshot.save",
                                                      obs::WaitClass::kIo);
    obs::ScopedWait wait(save_site);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError(StrCat("cannot open '", tmp, "' for writing"));
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) {
      return Status::IoError(StrCat("short write to '", tmp, "'"));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError(StrCat("cannot rename '", tmp, "' to '", path, "'"));
  }
  db.metrics().counter("snapshot.saves").Add();
  db.metrics().counter("snapshot.bytes_written").Add(data.size());
  HIREL_LOG(obs::LogLevel::kInfo, "snapshot", "save",
            {{"path", path}, {"bytes", StrCat(data.size())}});
  return Status::OK();
}

Result<std::unique_ptr<Database>> LoadDatabase(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError(StrCat("cannot stat '", path, "'"));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::IoError(StrCat("'", path, "' is not a regular file"));
  }
  std::string data;
  {
    static obs::WaitEventRegistry::Site& load_site =
        obs::WaitEventRegistry::Global().RegisterSite("snapshot.load",
                                                      obs::WaitClass::kIo);
    obs::ScopedWait wait(load_site);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IoError(StrCat("cannot open '", path, "' for reading"));
    }
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    if (in.bad()) {
      return Status::IoError(StrCat("read error on '", path, "'"));
    }
  }
  HIREL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         DeserializeDatabase(data));
  // The loaded database starts a fresh metrics epoch; record what it cost.
  db->metrics().counter("snapshot.loads").Add();
  db->metrics().counter("snapshot.bytes_read").Add(data.size());
  HIREL_LOG(obs::LogLevel::kInfo, "snapshot", "load",
            {{"path", path}, {"bytes", StrCat(data.size())}});
  return db;
}

}  // namespace hirel
