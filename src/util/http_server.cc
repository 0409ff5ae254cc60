#include "src/util/http_server.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/http_client.h"
#include "src/util/parse.h"

namespace mobisim {

namespace {

// Short timeout on every socket read/write: a stalled peer drops its own
// connection instead of wedging the accept loop (requests are small).
void SetIoTimeout(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 410:
      return "Gone";
    case 413:
      return "Payload Too Large";
    default:
      return "Error";
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.0 " << response.status << " " << StatusText(response.status)
      << "\r\nContent-Type: " << response.content_type
      << "\r\nContent-Length: " << response.body.size()
      << "\r\nConnection: close\r\n\r\n"
      << response.body;
  return out.str();
}

// Reads until the end of the request headers (or the timeout).  Returns
// false when the peer vanished before sending a complete header block or
// exceeded the header cap; `*data` keeps whatever arrived (headers plus any
// body prefix read along with them), `*header_end` the offset just past the
// blank line.
bool ReadRequestHead(int fd, std::string* data, std::size_t* header_end) {
  char buf[4096];
  while (true) {
    std::size_t end = data->find("\r\n\r\n");
    std::size_t skip = 4;
    if (end == std::string::npos) {
      end = data->find("\n\n");
      skip = 2;
    }
    if (end != std::string::npos) {
      *header_end = end + skip;
      return true;
    }
    if (data->size() > kHttpMaxHeaderBytes) {
      return false;  // nobody sends 64 KB of headers to a sweep endpoint
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return false;
    }
    data->append(buf, static_cast<std::size_t>(n));
  }
}

// Case-insensitive Content-Length lookup over the raw header block.
// Returns false on a malformed or non-numeric value ("Content-Length: huge"
// must be a clean 400, not an allocation).
bool FindContentLength(const std::string& head, std::size_t* length,
                       bool* present) {
  *length = 0;
  *present = false;
  std::istringstream lines(head);
  std::string line;
  std::getline(lines, line);  // request line
  while (std::getline(lines, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    for (char& c : key) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (key != "content-length") {
      continue;
    }
    std::string value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.erase(value.begin());
    }
    while (!value.empty() &&
           (value.back() == '\r' || value.back() == ' ' || value.back() == '\t')) {
      value.pop_back();
    }
    const auto parsed = ParseUint64(value);
    if (!parsed) {
      return false;
    }
    *length = static_cast<std::size_t>(*parsed);
    *present = true;
    return true;
  }
  return true;
}

}  // namespace

HttpResponse HttpNotFound() { return HttpError(404, "not found"); }

HttpResponse HttpError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"" + message + "\"}\n";
  return response;
}

bool HttpServer::Start(std::uint16_t port, bool bind_any, Handler handler,
                       std::string* error) {
  Stop();
  handler_ = std::move(handler);

  // Close-on-exec: a forked worker must not hold the listening socket, or an
  // accepted connection whose close the client waits on, past its exec.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    if (error != nullptr) {
      *error = std::string("bind ") + (bind_any ? "0.0.0.0:" : "127.0.0.1:") +
               std::to_string(port) + ": " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return true;
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  // shutdown() wakes the blocked accept(); the loop then sees the closed fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (thread_.joinable()) {
    thread_.join();
  }
  port_ = 0;
}

void HttpServer::AcceptLoop(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listening socket closed: Stop() was called
    }
    SetIoTimeout(fd);

    // Parse one request, answer once, close.  Every early exit below still
    // sends a well-formed error response when the peer is alive enough to
    // receive one — hostile input must never hang or crash the endpoint.
    std::string data;
    std::size_t header_end = 0;
    if (!ReadRequestHead(fd, &data, &header_end)) {
      if (data.size() > kHttpMaxHeaderBytes) {
        WriteAll(fd, RenderResponse(HttpError(400, "oversized request head")));
      } else if (!data.empty()) {
        // Torn request: bytes arrived but never a complete header block.
        WriteAll(fd, RenderResponse(HttpError(400, "truncated request")));
      }
      ::close(fd);
      continue;
    }

    const std::string head = data.substr(0, header_end);
    HttpRequest request;
    std::string version;
    {
      std::istringstream line(head.substr(0, head.find('\n')));
      line >> request.method >> request.path >> version;
    }
    if (request.method.empty() || request.path.empty() ||
        request.path[0] != '/') {
      WriteAll(fd, RenderResponse(HttpError(400, "malformed request line")));
      ::close(fd);
      continue;
    }
    if (request.method != "GET" && request.method != "POST") {
      WriteAll(fd, RenderResponse(HttpError(405, "GET or POST only")));
      ::close(fd);
      continue;
    }

    std::size_t content_length = 0;
    bool has_length = false;
    if (!FindContentLength(head, &content_length, &has_length)) {
      WriteAll(fd, RenderResponse(HttpError(400, "bad Content-Length")));
      ::close(fd);
      continue;
    }
    if (request.method == "GET" && has_length && content_length > 0) {
      // A GET carrying a body is a confused or hostile client; answer
      // cleanly without ever reading the body.
      WriteAll(fd, RenderResponse(HttpError(400, "GET does not take a body")));
      ::close(fd);
      continue;
    }
    if (content_length > kHttpMaxBodyBytes) {
      WriteAll(fd, RenderResponse(HttpError(413, "body too large")));
      ::close(fd);
      continue;
    }

    if (request.method == "POST" && content_length > 0) {
      // Whatever followed the blank line was already read; recv the rest.
      request.body = data.substr(header_end);
      bool torn = false;
      char buf[4096];
      while (request.body.size() < content_length) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          torn = true;  // peer died or stalled mid-body
          break;
        }
        request.body.append(buf, static_cast<std::size_t>(n));
      }
      if (torn) {
        WriteAll(fd, RenderResponse(HttpError(400, "truncated body")));
        ::close(fd);
        continue;
      }
      request.body.resize(content_length);  // ignore trailing surplus bytes
    }

    WriteAll(fd, RenderResponse(handler_(request)));
    ::close(fd);
  }
}

bool HttpGet(std::uint16_t port, const std::string& path, std::string* body,
             std::string* error, int* status, double timeout_sec) {
  HttpClientOptions options;
  options.connect_timeout_sec = timeout_sec;
  options.io_timeout_sec = timeout_sec;
  options.max_retries = 0;  // a status poll either answers now or fails now
  HttpClient client("127.0.0.1", port, options);
  HttpResponse response;
  if (!client.Fetch("GET", path, "", &response, error)) {
    return false;
  }
  if (status != nullptr) {
    *status = response.status;
  }
  if (body != nullptr) {
    *body = response.body;
  }
  return true;
}

}  // namespace mobisim
