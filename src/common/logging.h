#ifndef PRESERIAL_COMMON_LOGGING_H_
#define PRESERIAL_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace preserial {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

const char* LogLevelName(LogLevel level);

// Verbosity threshold; messages below it are discarded. Fixed at kWarning
// so library internals stay quiet in tests and benchmarks.
LogLevel GetLogLevel();

namespace internal_logging {

// Stream-style message collector; emits to stderr on destruction if the
// level passes the global threshold. kFatal always emits and then aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

// Usage: PRESERIAL_LOG(Info) << "admitted txn " << id;
#define PRESERIAL_LOG(level)                            \
  ::preserial::internal_logging::LogMessage(            \
      ::preserial::LogLevel::k##level, __FILE__, __LINE__)

// CHECK-style invariant assertion: always on, aborts with a message.
// Usage: PRESERIAL_CHECK(x > 0) << "details";
#define PRESERIAL_CHECK(cond)                                       \
  if (cond) {                                                       \
  } else                                                            \
    PRESERIAL_LOG(Fatal) << "Check failed: " #cond " "

}  // namespace preserial

#endif  // PRESERIAL_COMMON_LOGGING_H_
