// ckpt_inspect — dump and verify an "ASURACKP" checkpoint file.
//
// Prints the header (format version, rank count, step, simulation time),
// the header CRC status, every per-rank section with its file offset, length
// and stored vs computed CRC-32, and the first defect found. Exit status is
// 0 when everything verifies, 1 on an unsupported version, any CRC mismatch
// or truncation, 2 on usage / unreadable file — so the tool doubles as a
// scriptable integrity check:
//
//     ckpt_inspect run.ckpt && echo "checkpoint intact"
//
// With --json the same inspection is emitted as a single JSON object on
// stdout (exit-code semantics unchanged), so fleet tooling can triage
// checkpoints without scraping the human format.
//
// The inspector is the library's framing walker (io::inspectCheckpoint) —
// the same one restoreCheckpoint runs — so "OK" here means the file passes
// every framing check a restore makes. It is lenient: a damaged file is
// described, not rejected, which is the whole point of a triage tool.

#include <cstdio>
#include <exception>
#include <string>

#include "io/checkpoint.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ckpt_inspect [--json] <checkpoint-file>\n"
               "\n"
               "Dump header, per-rank sections, and CRC verification for an\n"
               "ASURACKP checkpoint. --json emits the inspection as one JSON\n"
               "object instead of the human-readable report. Exits 0 if the\n"
               "file verifies, 1 on an unsupported version, a CRC failure or\n"
               "truncation, 2 on usage errors.\n");
}

/// `s` as a JSON string literal (quotes, backslashes and control bytes
/// escaped).
std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

void printHuman(const std::string& path, const asura::io::CheckpointInspection& insp) {
  std::printf("%s\n", path.c_str());
  std::printf("  format version : %u\n", insp.info.version);
  std::printf("  ranks          : %d\n", insp.info.nranks);
  std::printf("  step           : %ld\n", insp.info.step);
  std::printf("  time           : %.17g\n", insp.info.time);
  std::printf("  header CRC     : stored %08x computed %08x  [%s]\n",
              insp.header_crc_stored, insp.header_crc_computed,
              insp.header_crc_ok ? "ok" : "MISMATCH");
  for (std::size_t i = 0; i < insp.sections.size(); ++i) {
    const auto& sec = insp.sections[i];
    std::printf("  rank %-3zu       : %llu bytes at offset %llu, CRC stored %08x "
                "computed %08x  [%s]\n",
                i, static_cast<unsigned long long>(sec.bytes),
                static_cast<unsigned long long>(sec.offset), sec.crc_stored,
                sec.crc_computed, sec.ok ? "ok" : "MISMATCH");
  }
  if (insp.sections.size() < static_cast<std::size_t>(insp.info.nranks)) {
    std::printf("  sections       : %zu of %d present\n", insp.sections.size(),
                insp.info.nranks);
  }
  std::printf("  total payload  : %llu bytes\n",
              static_cast<unsigned long long>(insp.info.payload_bytes));
  if (insp.truncated) std::printf("  TRUNCATED: file ends before the framing says it should\n");
  if (!insp.ok()) std::printf("  first defect   : %s\n", insp.defect.c_str());
  std::printf("  verdict        : %s\n", insp.ok() ? "OK" : "DAMAGED");
}

void printJson(const std::string& path, const asura::io::CheckpointInspection& insp) {
  std::printf("{\n");
  std::printf("  \"path\": %s,\n", jsonString(path).c_str());
  std::printf("  \"version\": %u,\n", insp.info.version);
  std::printf("  \"nranks\": %d,\n", insp.info.nranks);
  std::printf("  \"step\": %ld,\n", insp.info.step);
  std::printf("  \"time\": %.17g,\n", insp.info.time);
  std::printf("  \"payload_bytes\": %llu,\n",
              static_cast<unsigned long long>(insp.info.payload_bytes));
  std::printf("  \"header_crc\": {\"ok\": %s, \"stored\": %u, \"computed\": %u},\n",
              insp.header_crc_ok ? "true" : "false", insp.header_crc_stored,
              insp.header_crc_computed);
  std::printf("  \"sections\": [\n");
  for (std::size_t i = 0; i < insp.sections.size(); ++i) {
    const auto& sec = insp.sections[i];
    std::printf("    {\"rank\": %zu, \"offset\": %llu, \"bytes\": %llu, \"crc_stored\": %u, "
                "\"crc_computed\": %u, \"ok\": %s}%s\n",
                i, static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.bytes), sec.crc_stored,
                sec.crc_computed, sec.ok ? "true" : "false",
                i + 1 < insp.sections.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"truncated\": %s,\n", insp.truncated ? "true" : "false");
  std::printf("  \"defect\": %s,\n", jsonString(insp.defect).c_str());
  std::printf("  \"ok\": %s\n", insp.ok() ? "true" : "false");
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ckpt_inspect: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (path.empty()) {
    usage(stderr);
    return 2;
  }

  asura::io::CheckpointInspection insp;
  try {
    insp = asura::io::inspectCheckpoint(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckpt_inspect: %s\n", e.what());
    return 2;
  }

  if (json) {
    printJson(path, insp);
  } else {
    printHuman(path, insp);
  }
  return insp.ok() ? 0 : 1;
}
