#include "io/wal.h"

#include <sys/stat.h>

#include <cstring>
#include <fstream>

#include "common/str_util.h"
#include "core/integrity.h"
#include "io/coding.h"
#include "io/snapshot.h"
#include "obs/log.h"
#include "obs/wait.h"

namespace hirel {

namespace {

enum class WalOp : uint8_t {
  kCreateHierarchy = 1,
  kAddClass = 2,
  kAddInstance = 3,
  kAddEdge = 4,
  kAddPreferenceEdge = 5,
  kCreateRelation = 6,
  kInsertTuple = 7,
  kEraseTuple = 8,
  kDropRelation = 9,
  kDropHierarchy = 10,
};

uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void PutValueRecord(std::string* dst, const Value& value) {
  PutFixed8(dst, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutFixed8(dst, value.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
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

Result<Value> GetValueRecord(Decoder& decoder) {
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
      HIREL_ASSIGN_OR_RETURN(std::string s,
                             decoder.GetLengthPrefixedString());
      return Value::String(std::move(s));
    }
  }
  return Status::Corruption("wal: unknown value tag");
}

/// Name/value reference to a hierarchy node, stable across id remapping.
void PutNodeRef(std::string* dst, const Hierarchy& hierarchy, NodeId node) {
  if (hierarchy.is_class(node)) {
    PutFixed8(dst, 0);
    PutLengthPrefixedString(dst, hierarchy.ClassName(node));
  } else {
    PutFixed8(dst, 1);
    PutValueRecord(dst, hierarchy.InstanceValue(node));
  }
}

Result<NodeId> GetNodeRef(Decoder& decoder, const Hierarchy& hierarchy) {
  HIREL_ASSIGN_OR_RETURN(uint8_t kind, decoder.GetFixed8());
  if (kind == 0) {
    HIREL_ASSIGN_OR_RETURN(std::string name,
                           decoder.GetLengthPrefixedString());
    return hierarchy.FindClass(name);
  }
  if (kind == 1) {
    HIREL_ASSIGN_OR_RETURN(Value value, GetValueRecord(decoder));
    return hierarchy.FindInstance(value);
  }
  return Status::Corruption("wal: unknown node-ref kind");
}

/// Applies one replayed record to `db`. Records were validated before they
/// were logged, so failures here mean a corrupt or mismatched log.
Status ApplyRecord(Database& db, std::string_view payload) {
  Decoder decoder(payload);
  HIREL_ASSIGN_OR_RETURN(uint8_t op_byte, decoder.GetFixed8());
  switch (static_cast<WalOp>(op_byte)) {
    case WalOp::kCreateHierarchy: {
      HIREL_ASSIGN_OR_RETURN(std::string name,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(uint8_t keep, decoder.GetFixed8());
      HierarchyOptions options;
      options.keep_redundant_edges = keep != 0;
      return db.CreateHierarchy(name, options).status();
    }
    case WalOp::kAddClass: {
      HIREL_ASSIGN_OR_RETURN(std::string hname,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(hname));
      HIREL_ASSIGN_OR_RETURN(std::string cname,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(uint64_t parents, decoder.GetVarint64());
      NodeId node = kInvalidNode;
      if (parents == 0) {
        HIREL_ASSIGN_OR_RETURN(node, h->AddClass(cname));
      }
      for (uint64_t i = 0; i < parents; ++i) {
        HIREL_ASSIGN_OR_RETURN(std::string pname,
                               decoder.GetLengthPrefixedString());
        HIREL_ASSIGN_OR_RETURN(NodeId parent, h->FindClass(pname));
        if (i == 0) {
          HIREL_ASSIGN_OR_RETURN(node, h->AddClass(cname, parent));
        } else {
          HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
        }
      }
      return Status::OK();
    }
    case WalOp::kAddInstance: {
      HIREL_ASSIGN_OR_RETURN(std::string hname,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(hname));
      HIREL_ASSIGN_OR_RETURN(Value value, GetValueRecord(decoder));
      HIREL_ASSIGN_OR_RETURN(uint64_t parents, decoder.GetVarint64());
      NodeId node = kInvalidNode;
      if (parents == 0) {
        HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(value));
      }
      for (uint64_t i = 0; i < parents; ++i) {
        HIREL_ASSIGN_OR_RETURN(std::string pname,
                               decoder.GetLengthPrefixedString());
        HIREL_ASSIGN_OR_RETURN(NodeId parent, h->FindClass(pname));
        if (i == 0) {
          HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(value, parent));
        } else {
          HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
        }
      }
      return Status::OK();
    }
    case WalOp::kAddEdge:
    case WalOp::kAddPreferenceEdge: {
      HIREL_ASSIGN_OR_RETURN(std::string hname,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db.GetHierarchy(hname));
      HIREL_ASSIGN_OR_RETURN(NodeId a, GetNodeRef(decoder, *h));
      HIREL_ASSIGN_OR_RETURN(NodeId b, GetNodeRef(decoder, *h));
      if (static_cast<WalOp>(op_byte) == WalOp::kAddEdge) {
        return h->AddEdge(a, b);
      }
      return h->AddPreferenceEdge(a, b);
    }
    case WalOp::kCreateRelation: {
      HIREL_ASSIGN_OR_RETURN(std::string name,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(uint64_t attrs, decoder.GetVarint64());
      std::vector<std::pair<std::string, std::string>> attributes;
      for (uint64_t i = 0; i < attrs; ++i) {
        HIREL_ASSIGN_OR_RETURN(std::string attr,
                               decoder.GetLengthPrefixedString());
        HIREL_ASSIGN_OR_RETURN(std::string hierarchy,
                               decoder.GetLengthPrefixedString());
        attributes.emplace_back(std::move(attr), std::move(hierarchy));
      }
      // An optional storage tag follows: 0 (row) or the legacy 1
      // (columnar). Records written before the tag existed end here. Every
      // relation replays into the one TupleStore whatever its tag.
      if (!decoder.done()) {
        HIREL_ASSIGN_OR_RETURN(uint8_t tag, decoder.GetFixed8());
        if (tag > 1) {
          return Status::Corruption(
              StrCat("unknown storage tag ", int{tag}, " in WAL record"));
        }
      }
      return db.CreateRelation(name, attributes).status();
    }
    case WalOp::kInsertTuple:
    case WalOp::kEraseTuple: {
      HIREL_ASSIGN_OR_RETURN(std::string name,
                             decoder.GetLengthPrefixedString());
      HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                             db.GetRelation(name));
      HIREL_ASSIGN_OR_RETURN(uint8_t truth, decoder.GetFixed8());
      const Schema& schema = relation->schema();
      Item item(schema.size());
      for (size_t i = 0; i < schema.size(); ++i) {
        HIREL_ASSIGN_OR_RETURN(item[i],
                               GetNodeRef(decoder, *schema.hierarchy(i)));
      }
      if (static_cast<WalOp>(op_byte) == WalOp::kInsertTuple) {
        return relation
            ->Insert(std::move(item),
                     truth != 0 ? Truth::kPositive : Truth::kNegative)
            .status();
      }
      return relation->EraseItem(item);
    }
    case WalOp::kDropRelation: {
      HIREL_ASSIGN_OR_RETURN(std::string name,
                             decoder.GetLengthPrefixedString());
      return db.DropRelation(name);
    }
    case WalOp::kDropHierarchy: {
      HIREL_ASSIGN_OR_RETURN(std::string name,
                             decoder.GetLengthPrefixedString());
      return db.DropHierarchy(name);
    }
  }
  return Status::Corruption(StrCat("wal: unknown opcode ", int{op_byte}));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError(StrCat("cannot open wal '", path, "'"));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(file));
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(std::string_view payload) {
  std::string frame;
  PutVarint64(&frame, payload.size());
  frame.append(payload);
  uint64_t checksum = Fnv1a(payload);
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  {
    // Durability is the engine's dominant io wait: every committed frame
    // blocks on the write + flush pair.
    static obs::WaitEventRegistry::Site& flush_site =
        obs::WaitEventRegistry::Global().RegisterSite("wal.flush",
                                                      obs::WaitClass::kIo);
    obs::ScopedWait wait(flush_site);
    if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
      return Status::IoError("wal: short write");
    }
    if (std::fflush(file_) != 0) {
      return Status::IoError("wal: flush failed");
    }
  }
  if (metrics_ != nullptr) {
    metrics_->counter("wal.records_appended").Add();
    metrics_->counter("wal.bytes_appended").Add(frame.size());
    metrics_->counter("wal.flushes").Add();
  }
  HIREL_LOG(obs::LogLevel::kDebug, "wal", "append",
            {{"bytes", StrCat(frame.size())}});
  return Status::OK();
}

Result<std::vector<std::string>> ReadWalRecords(const std::string& path,
                                                bool* truncated_tail) {
  if (truncated_tail != nullptr) *truncated_tail = false;
  std::vector<std::string> records;
  if (!FileExists(path)) return records;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrCat("cannot open wal '", path, "'"));
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  Decoder decoder(data);
  while (!decoder.done()) {
    Result<uint64_t> size = decoder.GetVarint64();
    if (!size.ok() || *size > decoder.remaining() ||
        decoder.remaining() < *size + 8) {
      // Torn tail: the writer died mid-record.
      if (truncated_tail != nullptr) *truncated_tail = true;
      return records;
    }
    // Manually slice payload + checksum.
    size_t offset = data.size() - decoder.remaining();
    std::string_view payload(data.data() + offset,
                             static_cast<size_t>(*size));
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<uint64_t>(
                    static_cast<uint8_t>(data[offset + *size + i]))
                << (8 * i);
    }
    if (Fnv1a(payload) != stored) {
      // A bad checksum on the final frame is a torn tail; earlier, it is
      // real corruption.
      if (offset + *size + 8 >= data.size()) {
        if (truncated_tail != nullptr) *truncated_tail = true;
        return records;
      }
      return Status::Corruption(
          StrCat("wal: checksum mismatch at offset ", offset));
    }
    records.emplace_back(payload);
    // Advance past payload + checksum (Decoder cannot seek; rebuild).
    decoder = Decoder(std::string_view(data).substr(offset + *size + 8));
  }
  return records;
}

Result<std::unique_ptr<LoggedDatabase>> LoggedDatabase::Open(
    const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(
        StrCat("'", dir, "' is not an existing directory"));
  }
  std::string snapshot = dir + "/snapshot.hirel";
  std::string wal = dir + "/wal.log";

  std::unique_ptr<Database> db;
  if (FileExists(snapshot)) {
    HIREL_ASSIGN_OR_RETURN(db, LoadDatabase(snapshot));
  } else {
    db = std::make_unique<Database>();
  }

  bool torn = false;
  HIREL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         ReadWalRecords(wal, &torn));
  for (const std::string& record : records) {
    Status applied = ApplyRecord(*db, record);
    if (!applied.ok()) {
      return Status::Corruption(
          StrCat("wal replay failed: ", applied.ToString()));
    }
  }
  if (torn) {
    // Rewrite the log with only the intact records, dropping the tail.
    std::string tmp = wal + ".tmp";
    {
      HIREL_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> rewriter,
                             WalWriter::Open(tmp));
      for (const std::string& record : records) {
        HIREL_RETURN_IF_ERROR(rewriter->Append(record));
      }
    }
    if (std::rename(tmp.c_str(), wal.c_str()) != 0) {
      return Status::IoError("wal: cannot replace torn log");
    }
  }

  HIREL_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> writer,
                         WalWriter::Open(wal));
  auto logged = std::unique_ptr<LoggedDatabase>(
      new LoggedDatabase(dir, std::move(db), std::move(writer)));
  logged->replayed_ = records.size();
  logged->db_->metrics().counter("wal.records_replayed").Add(records.size());
  logged->wal_->set_metrics(&logged->db_->metrics());
  HIREL_LOG(obs::LogLevel::kInfo, "wal", "replay",
            {{"dir", dir},
             {"records", StrCat(records.size())},
             {"torn_tail", torn ? "true" : "false"}});
  return logged;
}

Result<Hierarchy*> LoggedDatabase::CreateHierarchy(const std::string& name,
                                                   HierarchyOptions options) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db_->CreateHierarchy(name, options));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kCreateHierarchy));
  PutLengthPrefixedString(&record, name);
  PutFixed8(&record, options.keep_redundant_edges ? 1 : 0);
  HIREL_RETURN_IF_ERROR(wal_->Append(record));
  return h;
}

Result<NodeId> LoggedDatabase::AddClass(
    const std::string& hierarchy, const std::string& class_name,
    const std::vector<std::string>& parents) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db_->GetHierarchy(hierarchy));
  NodeId node = kInvalidNode;
  if (parents.empty()) {
    HIREL_ASSIGN_OR_RETURN(node, h->AddClass(class_name));
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    HIREL_ASSIGN_OR_RETURN(NodeId parent, h->FindClass(parents[i]));
    if (i == 0) {
      HIREL_ASSIGN_OR_RETURN(node, h->AddClass(class_name, parent));
    } else {
      HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
    }
  }
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kAddClass));
  PutLengthPrefixedString(&record, hierarchy);
  PutLengthPrefixedString(&record, class_name);
  PutVarint64(&record, parents.size());
  for (const std::string& parent : parents) {
    PutLengthPrefixedString(&record, parent);
  }
  HIREL_RETURN_IF_ERROR(wal_->Append(record));
  return node;
}

Result<NodeId> LoggedDatabase::AddInstance(
    const std::string& hierarchy, const Value& value,
    const std::vector<std::string>& parents) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db_->GetHierarchy(hierarchy));
  NodeId node = kInvalidNode;
  if (parents.empty()) {
    HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(value));
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    HIREL_ASSIGN_OR_RETURN(NodeId parent, h->FindClass(parents[i]));
    if (i == 0) {
      HIREL_ASSIGN_OR_RETURN(node, h->AddInstance(value, parent));
    } else {
      HIREL_RETURN_IF_ERROR(h->AddEdge(parent, node));
    }
  }
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kAddInstance));
  PutLengthPrefixedString(&record, hierarchy);
  PutValueRecord(&record, value);
  PutVarint64(&record, parents.size());
  for (const std::string& parent : parents) {
    PutLengthPrefixedString(&record, parent);
  }
  HIREL_RETURN_IF_ERROR(wal_->Append(record));
  return node;
}

Status LoggedDatabase::AddEdge(const std::string& hierarchy,
                               const std::string& parent,
                               const std::string& child) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db_->GetHierarchy(hierarchy));
  HIREL_ASSIGN_OR_RETURN(NodeId p, h->FindByName(parent));
  HIREL_ASSIGN_OR_RETURN(NodeId c, h->FindByName(child));
  HIREL_RETURN_IF_ERROR(h->AddEdge(p, c));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kAddEdge));
  PutLengthPrefixedString(&record, hierarchy);
  PutNodeRef(&record, *h, p);
  PutNodeRef(&record, *h, c);
  return wal_->Append(record);
}

Status LoggedDatabase::AddPreferenceEdge(const std::string& hierarchy,
                                         const std::string& weaker,
                                         const std::string& stronger) {
  HIREL_ASSIGN_OR_RETURN(Hierarchy * h, db_->GetHierarchy(hierarchy));
  HIREL_ASSIGN_OR_RETURN(NodeId w, h->FindByName(weaker));
  HIREL_ASSIGN_OR_RETURN(NodeId s, h->FindByName(stronger));
  HIREL_RETURN_IF_ERROR(h->AddPreferenceEdge(w, s));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kAddPreferenceEdge));
  PutLengthPrefixedString(&record, hierarchy);
  PutNodeRef(&record, *h, w);
  PutNodeRef(&record, *h, s);
  return wal_->Append(record);
}

Result<HierarchicalRelation*> LoggedDatabase::CreateRelation(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * relation,
                         db_->CreateRelation(name, attributes));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kCreateRelation));
  PutLengthPrefixedString(&record, name);
  PutVarint64(&record, attributes.size());
  for (const auto& [attr, hierarchy] : attributes) {
    PutLengthPrefixedString(&record, attr);
    PutLengthPrefixedString(&record, hierarchy);
  }
  PutFixed8(&record, 0);  // storage tag: row
  HIREL_RETURN_IF_ERROR(wal_->Append(record));
  return relation;
}

Status LoggedDatabase::DropRelation(const std::string& name) {
  HIREL_RETURN_IF_ERROR(db_->DropRelation(name));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kDropRelation));
  PutLengthPrefixedString(&record, name);
  return wal_->Append(record);
}

Status LoggedDatabase::DropHierarchy(const std::string& name) {
  HIREL_RETURN_IF_ERROR(db_->DropHierarchy(name));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kDropHierarchy));
  PutLengthPrefixedString(&record, name);
  return wal_->Append(record);
}

Result<TupleId> LoggedDatabase::Insert(const std::string& relation,
                                       const Item& item, Truth truth,
                                       const InferenceOptions& options) {
  HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * r, db_->GetRelation(relation));
  HIREL_ASSIGN_OR_RETURN(TupleId id, GuardedInsert(*r, item, truth, options));
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kInsertTuple));
  PutLengthPrefixedString(&record, relation);
  PutFixed8(&record, truth == Truth::kPositive ? 1 : 0);
  const Schema& schema = r->schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    PutNodeRef(&record, *schema.hierarchy(i), item[i]);
  }
  HIREL_RETURN_IF_ERROR(wal_->Append(record));
  return id;
}

Status LoggedDatabase::EraseItem(const std::string& relation, const Item& item,
                                 const InferenceOptions& options) {
  HIREL_ASSIGN_OR_RETURN(HierarchicalRelation * r, db_->GetRelation(relation));
  // Build the record before the erase so the node refs are still valid.
  std::string record;
  PutFixed8(&record, static_cast<uint8_t>(WalOp::kEraseTuple));
  PutLengthPrefixedString(&record, relation);
  PutFixed8(&record, 0);
  const Schema& schema = r->schema();
  if (item.size() != schema.size()) {
    return Status::InvalidArgument("erase: item arity mismatch");
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    PutNodeRef(&record, *schema.hierarchy(i), item[i]);
  }
  HIREL_RETURN_IF_ERROR(GuardedErase(*r, item, options));
  return wal_->Append(record);
}

Status LoggedDatabase::Checkpoint() {
  HIREL_RETURN_IF_ERROR(SaveDatabase(*db_, snapshot_path()));
  // Reset the log: close, truncate, reopen.
  wal_.reset();
  {
    std::ofstream truncate(wal_path(), std::ios::binary | std::ios::trunc);
    if (!truncate) {
      return Status::IoError("wal: cannot truncate after checkpoint");
    }
  }
  HIREL_ASSIGN_OR_RETURN(wal_, WalWriter::Open(wal_path()));
  wal_->set_metrics(&db_->metrics());
  db_->metrics().counter("wal.checkpoints").Add();
  HIREL_LOG(obs::LogLevel::kInfo, "wal", "checkpoint", {{"dir", dir_}});
  return Status::OK();
}

}  // namespace hirel
