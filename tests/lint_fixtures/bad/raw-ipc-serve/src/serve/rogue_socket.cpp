// Fixture: the raw-ipc whitelist covers exactly one file of the campaign
// server — src/serve/checkpoint.cpp, for its durable writes.  A naked
// socket anywhere in src/serve (here, a hypothetical side-channel in the
// server proper) must be a finding: the control plane funnels every byte
// through parallel::transport::FrameStream.
extern "C" {
int socket(int, int, int);
int bind(int, const void*, unsigned int);
int listen(int, int);
int connect(int, const void*, unsigned int);
long read(int, void*, unsigned long);
}

namespace fixture::serve {

int open_side_channel() {
  const int fd = socket(1, 1, 0);  // finding
  bind(fd, nullptr, 0);            // finding
  listen(fd, 8);                   // finding
  return fd;
}

int dial_peer_daemon() {
  const int fd = socket(1, 1, 0);  // finding
  connect(fd, nullptr, 0);         // finding
  return fd;
}

long scrape_fd(int fd, void* buf, unsigned long n) {
  return ::read(fd, buf, n);  // finding
}

}  // namespace fixture::serve
