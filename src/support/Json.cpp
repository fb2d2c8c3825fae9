//===- support/Json.cpp -------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <cassert>
#include <charconv>
#include <cmath>

using namespace exochi;
using namespace exochi::json;

std::string json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += {'\\', C};
    else if (C == '\n' || C == '\t' || C == '\r')
      Out += {'\\', C == '\n' ? 'n' : C == '\t' ? 't' : 'r'};
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += formatString("\\u%04x", static_cast<unsigned char>(C));
    else
      Out += C;
  }
  return Out;
}

Writer &Writer::key(std::string_view K) {
  assert(!Stack.empty() && !AfterKey && "JSON key outside an object");
  value(K);
  Out += St.Compact ? ":" : ": ";
  AfterKey = true;
  return *this;
}

Writer &Writer::value(double D) {
  if (!std::isfinite(D))
    return raw("null");
  char Buf[64];
  // Shortest round-trip text is at most 24 characters.
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), D).ptr;
  return raw(std::string_view(Buf, static_cast<size_t>(End - Buf)));
}

Writer &Writer::value(std::string_view S) {
  return raw("\"" + escape(S) + "\"");
}

Writer &Writer::raw(std::string_view Json) {
  separate();
  Out += Json;
  return *this;
}

Writer &Writer::open(char Bracket) {
  raw({&Bracket, 1});
  Stack.push_back({Stack.size() < St.LineDepth, true});
  return *this;
}

Writer &Writer::close(char Bracket) {
  assert(!Stack.empty() && !AfterKey && "unbalanced JSON container");
  Level L = Stack.back();
  Stack.pop_back();
  if (L.Lined && !L.Empty)
    Out += "\n" + std::string(2 * Stack.size(), ' ');
  Out += Bracket;
  return *this;
}

void Writer::separate() {
  if (AfterKey) {
    AfterKey = false; // a member's value follows its key directly
    return;
  }
  if (Stack.empty())
    return;
  Level &L = Stack.back();
  if (!L.Empty)
    Out += (St.Compact || L.Lined) ? "," : ", ";
  L.Empty = false;
  if (L.Lined)
    Out += "\n" + std::string(2 * Stack.size(), ' ');
}
