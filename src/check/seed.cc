#include "check/seed.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace preserial::check {

namespace {

struct ScenarioName {
  ScenarioKind kind;
  const char* name;
};
constexpr ScenarioName kScenarioNames[] = {
    {ScenarioKind::kSingleNode, "single-node"},
    {ScenarioKind::kShardedTwoPc, "sharded-2pc"},
    {ScenarioKind::kFailover, "failover"},
    {ScenarioKind::kPropertyFuzz, "property-fuzz"},
    {ScenarioKind::kMemberFuzz, "member-fuzz"},
};

struct MutationEntry {
  gtm::GtmMutation mutation;
  const char* name;
};
constexpr MutationEntry kMutationNames[] = {
    {gtm::GtmMutation::kNone, "none"},
    {gtm::GtmMutation::kSkipAwakeStalenessCheck, "skip-awake-staleness"},
    {gtm::GtmMutation::kReconcileMulDivAsAddSub, "muldiv-as-addsub"},
    {gtm::GtmMutation::kReconcileAddSubLastWrite, "addsub-last-write"},
    {gtm::GtmMutation::kAdmitAssignWithAddSub, "admit-assign-with-addsub"},
    {gtm::GtmMutation::kStampCommitSummaryAtBegin,
     "stamp-commit-summary-at-begin"},
};

}  // namespace

const char* ScenarioKindName(ScenarioKind kind) {
  for (const ScenarioName& e : kScenarioNames) {
    if (e.kind == kind) return e.name;
  }
  return "?";
}

Result<ScenarioKind> ParseScenarioKind(const std::string& name) {
  for (const ScenarioName& e : kScenarioNames) {
    if (name == e.name) return e.kind;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown scenario: " + name);
}

const char* MutationName(gtm::GtmMutation mutation) {
  for (const MutationEntry& e : kMutationNames) {
    if (e.mutation == mutation) return e.name;
  }
  return "?";
}

Result<gtm::GtmMutation> ParseMutation(const std::string& name) {
  for (const MutationEntry& e : kMutationNames) {
    if (name == e.name) return e.mutation;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown mutation: " + name);
}

std::string FormatScheduleSeed(const ScheduleSeed& seed) {
  std::string out;
  out += StrFormat("scenario=%s\n", ScenarioKindName(seed.scenario));
  out += StrFormat("mutation=%s\n", MutationName(seed.mutation));
  out += StrFormat("constraint=%d\n", seed.with_constraint ? 1 : 0);
  out += StrFormat("steps=%zu\n", seed.steps);
  out += StrFormat("seed=%llu\n",
                   static_cast<unsigned long long>(seed.seed));
  out += "choices=";
  for (size_t i = 0; i < seed.choices.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%u", seed.choices[i]);
  }
  out += "\n";
  return out;
}

Result<ScheduleSeed> ParseScheduleSeed(const std::string& text) {
  ScheduleSeed seed;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing CR (files may be checked out with CRLF endings).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("seed line %d: expected key=value, got '%s'",
                              lineno, line.c_str()));
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "scenario") {
      PRESERIAL_ASSIGN_OR_RETURN(seed.scenario, ParseScenarioKind(value));
    } else if (key == "mutation") {
      PRESERIAL_ASSIGN_OR_RETURN(seed.mutation, ParseMutation(value));
    } else if (key == "constraint") {
      seed.with_constraint = value == "1" || value == "true";
    } else if (key == "steps") {
      seed.steps = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (key == "seed") {
      seed.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "choices") {
      seed.choices.clear();
      const char* p = value.c_str();
      while (*p != '\0') {
        char* end = nullptr;
        const unsigned long v = std::strtoul(p, &end, 10);
        if (end == p) {
          return Status(StatusCode::kInvalidArgument,
                        StrFormat("seed line %d: bad choices list '%s'",
                                  lineno, value.c_str()));
        }
        seed.choices.push_back(static_cast<uint32_t>(v));
        p = end;
        if (*p == ',') ++p;
      }
    } else {
      return Status(StatusCode::kInvalidArgument,
                    StrFormat("seed line %d: unknown key '%s'", lineno,
                              key.c_str()));
    }
  }
  return seed;
}

Result<ScheduleSeed> LoadScheduleSeedFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kNotFound, "cannot open seed file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseScheduleSeed(buf.str());
}

Status SaveScheduleSeedFile(const std::string& path,
                            const ScheduleSeed& seed) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status(StatusCode::kInternal, "cannot write seed file: " + path);
  }
  out << FormatScheduleSeed(seed);
  out.flush();
  if (!out) {
    return Status(StatusCode::kInternal, "short write to seed file: " + path);
  }
  return Status::Ok();
}

}  // namespace preserial::check
