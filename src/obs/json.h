// Shared JSON string escaping for every machine-readable emitter in the
// engine: FormatRelationJson (every sys.* SHOW ... JSON and the
// diagnostics bundle), SHOW TRACE JSON, and the Chrome trace exporter. One definition keeps the escaping rules (and
// their bugs) in one place — relation and metric names are identifiers in
// practice, but the emitters must stay well-formed for arbitrary input.

#ifndef HIREL_OBS_JSON_H_
#define HIREL_OBS_JSON_H_

#include <string>
#include <string_view>

namespace hirel {
namespace obs {

/// Appends `text` to `out` with JSON string escaping applied (quotes,
/// backslashes, and control characters below 0x20; no surrounding quotes).
void AppendJsonEscaped(std::string& out, std::string_view text);

/// Returns `text` with JSON string escaping applied.
std::string JsonEscape(std::string_view text);

/// Appends `"text"` — a complete, quoted JSON string — to `out`.
void AppendJsonString(std::string& out, std::string_view text);

}  // namespace obs
}  // namespace hirel

#endif  // HIREL_OBS_JSON_H_
