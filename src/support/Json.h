//===- support/Json.h - Field-listed JSON rendering -------------*- C++ -*-===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer. A struct written as JSON lists its fields once,
/// beside its declaration, as JSON keys alternating with accessors (data
/// member pointers, const member function pointers, or callables taking
/// the struct):
///
///   static constexpr auto jsonFields() {
///     using S = DrainSummary;
///     return json::fields("queued_at_drain", &S::QueuedAtDrain, ...);
///   }
///
/// json::render(S) then writes `{"queued_at_drain": 2, ...}` in list
/// order. Every double is written as the shortest text that reads back to
/// the same value (std::to_chars); non-finite doubles are null.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_SUPPORT_JSON_H
#define EXOCHI_SUPPORT_JSON_H

#include <concepts>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace exochi {
namespace json {

/// A field list: JSON keys alternating with their accessors.
template <typename... A> constexpr auto fields(A... KeysAndAccessors) {
  static_assert(sizeof...(A) % 2 == 0, "fields() takes key, accessor pairs");
  return std::tuple(KeysAndAccessors...);
}

/// A struct that lists its fields (see the file comment).
template <typename T>
concept Listed = requires { T::jsonFields(); };

/// \p S escaped for a JSON string literal (quote, backslash and control
/// bytes; other bytes pass through unchanged).
std::string escape(std::string_view S);

/// Layout of the rendered text.
struct Style {
  bool Compact = false; ///< "," and ":" instead of ", " and ": "
  /// Containers opened below this nesting depth put each item on a line
  /// of its own, indented two spaces per level (0: all on one line).
  unsigned LineDepth = 0;
};

/// Streams one JSON value: bools, integers, doubles, strings, optionals
/// (null when empty), vectors and listed structs render whole through
/// value(); other containers open and close explicitly.
class Writer {
public:
  explicit Writer(Style S = {}) : St(S) {}

  Writer &beginObject() { return open('{'); }
  Writer &endObject() { return close('}'); }
  Writer &beginArray() { return open('['); }
  Writer &endArray() { return close(']'); }

  /// Starts the next member of the open object.
  Writer &key(std::string_view K);

  Writer &value(bool B) { return raw(B ? "true" : "false"); }
  Writer &value(double D);
  Writer &value(std::string_view S);
  Writer &value(const char *S) { return value(std::string_view(S)); }
  template <std::integral I> Writer &value(I N) {
    return raw(std::to_string(N));
  }
  template <typename T> Writer &value(const std::optional<T> &O) {
    return O ? value(*O) : raw("null");
  }
  template <typename T> Writer &value(const std::vector<T> &V) {
    beginArray();
    for (const T &Item : V)
      value(Item);
    return endArray();
  }
  template <Listed T> Writer &value(const T &S) {
    return beginObject().fields(S).endObject();
  }

  /// key(K) then value(V).
  template <typename V> Writer &member(std::string_view K, const V &Val) {
    return key(K).value(Val);
  }

  /// Every listed field of \p S as members of the open object.
  template <Listed T> Writer &fields(const T &S) {
    constexpr auto F = T::jsonFields();
    [&]<size_t... I>(std::index_sequence<I...>) {
      (member(std::get<2 * I>(F), std::invoke(std::get<2 * I + 1>(F), S)),
       ...);
    }(std::make_index_sequence<std::tuple_size_v<decltype(F)> / 2>());
    return *this;
  }

  /// Splices \p Json, an already rendered value, in as the next value.
  Writer &raw(std::string_view Json);

  /// The rendered text; the writer is empty afterwards.
  std::string take() { return std::move(Out); }

private:
  Writer &open(char Bracket);
  Writer &close(char Bracket);
  /// Writes what goes before the next item of the open container.
  void separate();

  struct Level {
    bool Lined = false;
    bool Empty = true;
  };
  Style St;
  std::string Out;
  std::vector<Level> Stack;
  bool AfterKey = false;
};

/// \p S rendered as one JSON value.
template <typename T> std::string render(const T &S) {
  return Writer().value(S).take();
}

} // namespace json
} // namespace exochi

#endif // EXOCHI_SUPPORT_JSON_H
