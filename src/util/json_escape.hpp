// JSON string escaping shared by every JSON producer in the repo (the sweep
// event feed, the chrome://tracing writer, the bench JSON emitters).
//
// Escapes the two mandatory characters (quote, backslash), the common
// control characters by their short forms (\n \r \t), and every other byte
// below 0x20 as \u00XX — so a scenario name containing a newline or a stray
// control byte can never shear a JSONL feed line or corrupt a trace file.
// Bytes >= 0x20 pass through untouched (UTF-8 sequences survive verbatim).
#pragma once

#include <string>
#include <string_view>

namespace ebrc::util {

/// Appends the escaped form of `s` to `out` (no surrounding quotes).
void json_escape_into(std::string& out, std::string_view s);

}  // namespace ebrc::util
