#include "net/http.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace oda::net {

namespace {

// HTTP's optional whitespace is SP and HTAB only (RFC 9110 5.6.3); the
// common trim() strips every isspace() byte, which would accept a header
// value padded with CR, LF, VT or FF.
// ODA-LINT-ALLOW(shared-helper): header OWS is SP/HTAB, not isspace().
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// True when `value` (a Connection header) contains `token` as a
/// comma-separated element, case-insensitively.
bool has_token(const std::string& value, const std::string& token) {
  const std::string lowered = to_lower(value);
  std::size_t pos = 0;
  while (pos < lowered.size()) {
    std::size_t comma = lowered.find(',', pos);
    if (comma == std::string::npos) comma = lowered.size();
    if (trim(lowered.substr(pos, comma - pos)) == token) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string HttpRequest::query_param(const std::string& key) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (pair == key) return "";
    } else if (pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return "";
}

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string serialize_response(const HttpResponse& resp, bool keep_alive) {
  std::string out;
  out.reserve(resp.body.size() + 160);
  out += "HTTP/1.1 ";
  out += std::to_string(resp.code);
  out += ' ';
  out += reason_phrase(resp.code);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : resp.extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  return out;
}

ParseStatus HttpParser::feed(const char* data, std::size_t n) {
  if (status_ == ParseStatus::kError) return status_;
  buf_.append(data, n);
  // A completed-but-unserviced request keeps pipelined bytes buffered; the
  // server stops reading in that state, so buffering stays bounded.
  if (status_ == ParseStatus::kComplete) return status_;
  return parse();
}

ParseStatus HttpParser::next() {
  if (status_ != ParseStatus::kComplete) return status_;
  buf_.erase(0, consumed_);
  consumed_ = 0;
  req_ = HttpRequest{};
  status_ = ParseStatus::kNeedMore;
  if (!buf_.empty()) return parse();
  return status_;
}

ParseStatus HttpParser::fail(int code, std::string reason) {
  status_ = ParseStatus::kError;
  error_code_ = code;
  error_reason_ = std::move(reason);
  return status_;
}

ParseStatus HttpParser::parse() {
  // Find the end of the header block: CRLFCRLF, tolerating bare-LF line
  // endings (robustness principle; every real client sends CRLF).
  std::size_t header_len = std::string::npos;  // bytes before the terminator
  std::size_t header_end = std::string::npos;  // first body byte
  const std::size_t crlf = buf_.find("\r\n\r\n");
  const std::size_t lf = buf_.find("\n\n");
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    header_len = crlf;
    header_end = crlf + 4;
  } else if (lf != std::string::npos) {
    header_len = lf;
    header_end = lf + 2;
  }
  if (header_len == std::string::npos) {
    if (buf_.size() > limits_.max_header_bytes) {
      return fail(431, "request headers exceed " +
                           std::to_string(limits_.max_header_bytes) +
                           " bytes");
    }
    return status_;  // kNeedMore
  }
  if (header_len > limits_.max_header_bytes) {
    return fail(431, "request headers exceed " +
                         std::to_string(limits_.max_header_bytes) + " bytes");
  }

  // Split the header block into lines (strip one trailing CR per line).
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < header_len) {
    std::size_t nl = buf_.find('\n', pos);
    if (nl == std::string::npos || nl > header_len) nl = header_len;
    std::size_t len = nl - pos;
    if (len > 0 && buf_[pos + len - 1] == '\r') --len;
    lines.push_back(buf_.substr(pos, len));
    pos = nl + 1;
  }
  if (lines.empty() || lines[0].empty()) {
    return fail(400, "empty request line");
  }

  // Request line: METHOD SP request-target SP HTTP/1.x
  const std::string& line = lines[0];
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return fail(400, "malformed request line");
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (req.method.empty() ||
      !std::all_of(req.method.begin(), req.method.end(),
                   [](unsigned char c) { return c >= 'A' && c <= 'Z'; })) {
    return fail(400, "malformed method token");
  }
  if (req.target.empty() || (req.target[0] != '/' && req.target != "*")) {
    return fail(400, "malformed request target");
  }
  if (version == "HTTP/1.1") {
    req.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    req.version_minor = 0;
  } else {
    return fail(505, "unsupported protocol version: " + version);
  }
  const std::size_t qmark = req.target.find('?');
  req.path = req.target.substr(0, qmark);
  req.query =
      qmark == std::string::npos ? "" : req.target.substr(qmark + 1);

  // Header fields.
  std::size_t content_length = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& field = lines[i];
    if (field.empty()) continue;
    if (field[0] == ' ' || field[0] == '\t') {
      return fail(400, "obsolete header line folding");
    }
    const std::size_t colon = field.find(':');
    if (colon == std::string::npos || colon == 0) {
      return fail(400, "malformed header field");
    }
    std::string name = field.substr(0, colon);
    if (name.find(' ') != std::string::npos ||
        name.find('\t') != std::string::npos) {
      return fail(400, "whitespace in header field name");
    }
    req.headers.emplace_back(to_lower(name),
                             trim(field.substr(colon + 1)));
  }
  if (req.header("transfer-encoding") != nullptr) {
    return fail(501, "transfer codings not supported");
  }
  if (const std::string* cl = req.header("content-length")) {
    if (cl->empty() || !std::all_of(cl->begin(), cl->end(), [](unsigned char c) {
          return c >= '0' && c <= '9';
        }) ||
        cl->size() > 10) {
      return fail(400, "malformed Content-Length");
    }
    content_length = static_cast<std::size_t>(std::stoull(*cl));
  }
  if (content_length > limits_.max_body_bytes) {
    return fail(413, "request body of " + std::to_string(content_length) +
                         " bytes not accepted");
  }
  if (buf_.size() < header_end + content_length) {
    return status_;  // kNeedMore — body still arriving
  }
  req.body = buf_.substr(header_end, content_length);

  // Connection persistence.
  req.keep_alive = req.version_minor >= 1;
  if (const std::string* conn = req.header("connection")) {
    if (has_token(*conn, "close")) {
      req.keep_alive = false;
    } else if (has_token(*conn, "keep-alive")) {
      req.keep_alive = true;
    }
  }

  req_ = std::move(req);
  consumed_ = header_end + content_length;
  status_ = ParseStatus::kComplete;
  return status_;
}

}  // namespace oda::net
