// HTTP/1.1 message types and an incremental request parser for the
// observability plane (net/server.hpp). The parser owns its receive buffer
// and is fed raw bytes as they arrive; it exposes exactly one completed
// request at a time and retains pipelined leftovers for the next round, so
// a connection state machine never re-buffers. The parser itself has no OS
// dependencies.
//
// Scope: the observability plane is GET-only, so bodies are bounded by
// Limits::max_body_bytes (default 0 — any payload draws 413) and chunked
// transfer coding is refused with 501 rather than implemented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace oda::net {

/// One parsed request. Header names are lower-cased at parse time; values
/// keep their case with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;  ///< e.g. "GET" (upper-case tokens only)
  std::string target;  ///< raw request-target, e.g. "/profile?seconds=2"
  std::string path;    ///< target up to the first '?'
  std::string query;   ///< after the first '?', "" when absent
  int version_minor = 1;  ///< HTTP/1.<minor>; only 0 and 1 are accepted
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;  ///< resolved from version + Connection header

  /// First header value for `name` (must be lower-case), nullptr if absent.
  const std::string* header(const std::string& name) const;
  /// Value of `key` in the query string ("" when absent or valueless).
  std::string query_param(const std::string& key) const;
};

struct HttpResponse {
  int code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra headers appended verbatim (name, value); Content-Type,
  /// Content-Length and Connection are emitted by serialize_response.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Canonical reason phrase for a status code ("Unknown" for others).
const char* reason_phrase(int code);

/// Renders a full HTTP/1.1 response with Content-Length framing and an
/// explicit Connection header matching `keep_alive`.
std::string serialize_response(const HttpResponse& resp, bool keep_alive);

enum class ParseStatus {
  kNeedMore,  ///< incomplete — feed more bytes
  kComplete,  ///< request() is valid until next()
  kError,     ///< protocol error — error_code()/error_reason() are set
};

/// Incremental request parser. feed() appends bytes and advances; after
/// kComplete the caller services request() and then calls next(), which
/// drops the consumed bytes and re-parses any pipelined remainder. A
/// kError status is terminal for the connection (the server responds with
/// error_code() and closes).
class HttpParser {
 public:
  struct Limits {
    /// Cap on the request line + headers (431 beyond it).
    std::size_t max_header_bytes = 8 * 1024;
    /// Cap on declared Content-Length (413 beyond it). The observability
    /// endpoints take no payloads, so the default refuses any body.
    std::size_t max_body_bytes = 0;
  };

  HttpParser() = default;
  explicit HttpParser(Limits limits) : limits_(limits) {}

  /// Appends bytes and attempts to complete one request. Bytes arriving
  /// while a completed request is still unserviced are buffered untouched.
  ParseStatus feed(const char* data, std::size_t n);
  ParseStatus status() const { return status_; }

  /// Valid only while status() == kComplete, and only until next().
  const HttpRequest& request() const { return req_; }
  /// 400 / 413 / 431 / 501 / 505 once status() == kError.
  int error_code() const { return error_code_; }
  const std::string& error_reason() const { return error_reason_; }

  /// Releases the completed request and re-parses the pipelined remainder
  /// (may return kComplete immediately again).
  ParseStatus next();

  /// Bytes currently buffered (pipelined remainder included).
  std::size_t buffered() const { return buf_.size(); }

 private:
  ParseStatus parse();
  ParseStatus fail(int code, std::string reason);

  Limits limits_;
  std::string buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ forming the completed request
  HttpRequest req_;
  ParseStatus status_ = ParseStatus::kNeedMore;
  int error_code_ = 0;
  std::string error_reason_;
};

}  // namespace oda::net
