#include "daemon/journal.hpp"

#include <unistd.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/format.hpp"
#include "inject/fault.hpp"

namespace numashare::nsd {

FsyncPolicy parse_fsync_policy(std::string_view text, bool* ok) {
  if (ok != nullptr) *ok = true;
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "checkpoint") return FsyncPolicy::kCheckpoint;
  if (text == "every-write") return FsyncPolicy::kEveryWrite;
  if (ok != nullptr) *ok = false;
  return FsyncPolicy::kNone;
}

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kCheckpoint: return "checkpoint";
    case FsyncPolicy::kEveryWrite: return "every-write";
  }
  return "?";
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jstr(std::string_view text) { return "\"" + json_escape(text) + "\""; }

std::uint32_t crc32(std::string_view text) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : text) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string jnum(double value) { return fmt_compact(value, 6); }
std::string jnum(std::uint64_t value) { return std::to_string(value); }
std::string jnum(std::int64_t value) { return std::to_string(value); }

JournalWriter::JournalWriter(const std::string& path) { open(path); }

bool JournalWriter::open(const std::string& path) {
  if (file_ != nullptr) std::fclose(file_);
  path_ = path;
  file_ = std::fopen(path.c_str(), "a");
  return file_ != nullptr;
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

namespace {
std::string build_record(double ts, std::string_view event,
                         const std::vector<std::pair<std::string_view, std::string>>& fields) {
  std::string line = "{\"ts\":" + jnum(ts) + ",\"event\":" + jstr(event);
  for (const auto& [key, value] : fields) {
    line += ",";
    line += jstr(key);
    line += ":";
    line += value;
  }
  line += "}";
  return line;
}
}  // namespace

void JournalWriter::record(double ts, std::string_view event,
                           const std::vector<std::pair<std::string_view, std::string>>& fields) {
  if (file_ == nullptr) return;
  std::string line = build_record(ts, event, fields);
  line += "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  if (fsync_policy_ == FsyncPolicy::kEveryWrite) ::fsync(fileno(file_));
  ++lines_;
}

void JournalWriter::record_checksummed(
    double ts, std::string_view event,
    const std::vector<std::pair<std::string_view, std::string>>& fields) {
  if (file_ == nullptr) return;
  // The checksum covers the exact line record() would have written; the crc
  // field then replaces the closing brace, so verification is "strip the
  // trailing crc field, re-hash, compare".
  std::string line = build_record(ts, event, fields);
  const std::uint32_t crc = crc32(line);
  line.pop_back();  // '}'
  line += ",\"crc\":" + jnum(static_cast<std::uint64_t>(crc)) + "}\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  if (fsync_policy_ == FsyncPolicy::kEveryWrite) ::fsync(fileno(file_));
  ++lines_;
}

bool checkpoint_crc_valid(const std::string& line) {
  if (!journal_field(line, "crc")) return true;  // legacy, pre-checksum record
  // record_checksummed() always appends the crc last: ...,"crc":<digits>}
  const auto pos = line.rfind(",\"crc\":");
  if (pos == std::string::npos) return false;
  const std::size_t digits = pos + 7;
  std::size_t end = digits;
  while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end]))) ++end;
  if (end == digits || end + 1 != line.size() || line[end] != '}') return false;
  const auto stored = static_cast<std::uint32_t>(
      std::strtoull(line.c_str() + digits, nullptr, 10));
  const std::string original = line.substr(0, pos) + "}";
  return crc32(original) == stored;
}

void JournalWriter::sync(bool force) {
  if (file_ == nullptr) return;
  std::fflush(file_);
  if (force || fsync_policy_ != FsyncPolicy::kNone) ::fsync(fileno(file_));
}

bool JournalWriter::rotate() {
  if (file_ == nullptr) return false;
  // The outgoing file must be durable before the rename swaps it into the
  // side-file slot: recovery may have to read it if we die before the new
  // file gains a checkpoint.
  sync(/*force=*/true);
  std::fclose(file_);
  file_ = nullptr;
  const std::string side = path_ + ".1";
  if (std::rename(path_.c_str(), side.c_str()) != 0) {
    // Rename failed (exotic: EXDEV, permissions). Reopen in append mode and
    // keep going with the un-rotated file rather than losing the journal.
    file_ = std::fopen(path_.c_str(), "a");
    return false;
  }
  inject::fire_die("journal.rotate.die", "post_rename", 51);
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) return false;
  lines_ = 0;
  ++rotations_;
  return true;
}

std::vector<JournalEntry> read_journal(const std::string& path, bool* torn_tail) {
  if (torn_tail != nullptr) *torn_tail = false;
  std::vector<JournalEntry> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in) return entries;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // getline() cannot tell "line" from "truncated tail with no newline", so
  // split manually: only '\n'-terminated records count as entries.
  std::size_t start = 0;
  while (start < text.size()) {
    const auto end = text.find('\n', start);
    if (end == std::string::npos) {
      // The writer appends record + '\n' in one buffered write and flushes;
      // a chunk without the terminator is the torn remains of a crash
      // mid-write. Surface the fact, never the partial record.
      if (torn_tail != nullptr) *torn_tail = true;
      break;
    }
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    JournalEntry entry;
    entry.raw = std::move(line);
    if (auto event = journal_field(entry.raw, "event")) {
      // Strip the quotes of the extracted string value.
      if (event->size() >= 2 && event->front() == '"') {
        entry.event = event->substr(1, event->size() - 2);
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

RecoveredJournal recover_journal(const std::string& path) {
  RecoveredJournal out;
  auto entries = read_journal(path, &out.torn_tail);
  if (entries.empty()) {
    // Primary missing or empty: either a young deployment (side-file also
    // absent -> genuinely nothing) or a crash inside rotate() between the
    // rename and the first checkpoint of the new file.
    entries = read_journal(path + ".1", &out.torn_tail);
    out.used_sidefile = !entries.empty();
  }
  std::size_t tail_start = 0;
  for (std::size_t i = entries.size(); i > 0; --i) {
    if (entries[i - 1].event != "checkpoint") continue;
    // A bit-rotted/torn snapshot must not seed recovery: skip backwards to
    // the newest checkpoint whose checksum still verifies.
    if (!checkpoint_crc_valid(entries[i - 1].raw)) {
      ++out.corrupt_checkpoints_skipped;
      continue;
    }
    out.checkpoint = entries[i - 1].raw;
    tail_start = i;
    break;
  }
  out.tail.assign(entries.begin() + static_cast<std::ptrdiff_t>(tail_start), entries.end());
  return out;
}

std::optional<std::string> journal_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + json_escape(key) + "\":";
  // Scan outside of strings only, at nesting depth 1.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      // Potential key start at depth 1.
      if (depth == 1 && line.compare(i, needle.size(), needle) == 0) {
        std::size_t start = i + needle.size();
        // Value extends to the matching comma/brace at this depth.
        int vdepth = 0;
        bool vstring = false;
        for (std::size_t j = start; j < line.size(); ++j) {
          const char v = line[j];
          if (vstring) {
            if (v == '\\') ++j;
            else if (v == '"') vstring = false;
            continue;
          }
          if (v == '"') vstring = true;
          else if (v == '[' || v == '{') ++vdepth;
          else if (v == ']' || v == '}') {
            if (vdepth == 0) return line.substr(start, j - start);
            --vdepth;
          } else if (v == ',' && vdepth == 0) {
            return line.substr(start, j - start);
          }
        }
        return std::nullopt;  // torn line
      }
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
  }
  return std::nullopt;
}

}  // namespace numashare::nsd
