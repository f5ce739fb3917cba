#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace preserial {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

LogLevel GetLogLevel() { return LogLevel::kWarning; }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from __FILE__ for terser output.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LogLevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  const bool enabled =
      static_cast<int>(level_) >= static_cast<int>(GetLogLevel());
  if (enabled || level_ == LogLevel::kFatal) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace preserial
