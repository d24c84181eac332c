#!/bin/sh
# List every value exported from lib/**/*.mli that no other module of
# lib/, bin/, bench/, benchmark/ or examples/ references, and fail if
# one is missing from scripts/exports.allow.  Tests do not count as
# callers: a value only tests reach is dead surface unless the
# allowlist names it with its reason.
#
# The check is name-level.  A reference is `Module.name` in a .ml file
# other than the module's own, or `Alias.name` where the file binds
# `module Alias = ...Module` (or `let module`).  Comments and string
# literals are not references.  A value inside a submodule signature
# (`module Builder : sig ... end`) is keyed by the submodule's name.
#
# Each allowlist line is `Module.name  reason`, where the reason is
# "Test oracle", "Corruption hook" or "Unit-tested" (the file's header
# says what each means), and the value's doc comment in its .mli must
# contain the same words.  An entry whose value has gained a caller, or
# is no longer exported, is stale and fails the check too.
#
# Usage: scripts/dead_exports.sh   (exit 0 when clean, 1 on findings)
set -eu
cd "$(dirname "$0")/.."

allow=scripts/exports.allow

# Print "<file>\t<line>" for every line of the given files with OCaml
# comments (nested, spanning lines) blanked out.
strip_comments() {
  awk '
    FNR == 1 { depth = 0 }
    {
      line = $0; out = ""
      while (line != "") {
        o = index(line, "(*"); c = index(line, "*)")
        if (depth == 0) {
          if (o == 0) { out = out line; line = "" }
          else { out = out substr(line, 1, o - 1) " "; line = substr(line, o + 2); depth = 1 }
        } else if (o == 0 && c == 0) line = ""
        else if (o > 0 && (c == 0 || o < c)) { depth++; line = substr(line, o + 2) }
        else { depth--; line = substr(line, c + 2) }
      }
      print FILENAME "\t" out
    }' "$@"
}

# shellcheck disable=SC2046
{
  # E <Module.name> <own .ml> <.mli>: one line per exported value.
  strip_comments $(find lib -name '*.mli' | sort) | awk -F '\t' '
    $1 != file {
      file = $1; n = split(file, p, "/"); m = p[n]; sub(/\.mli$/, "", m)
      depth = 0; stk[0] = toupper(substr(m, 1, 1)) substr(m, 2)
      own = file; sub(/i$/, "", own)
    }
    $2 ~ /^module [A-Z][A-Za-z0-9_]* *: *sig/ {
      s = $2; sub(/^module /, "", s); sub(/[ :].*/, "", s); stk[++depth] = s; next
    }
    $2 ~ /^end *$/ && depth > 0 { depth--; next }
    $2 ~ /^ *val [a-z_][A-Za-z0-9_'\'']* *:/ {
      s = $2; sub(/^ *val /, "", s); sub(/[ :].*/, "", s)
      print "E\t" stk[depth] "." s "\t" own "\t" file
    }'
  # A <file> <alias> <Module> and R <file> <Qualifier.name>.
  strip_comments $(find lib bin bench benchmark examples -name '*.ml' | sort) |
    awk -F '\t' '
    {
      line = $2
      gsub(/'\''\\?"'\''/, "'\'' '\''", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      rest = line
      while (match(rest, /module [A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*/)) {
        s = substr(rest, RSTART + 7, RLENGTH - 7); rest = substr(rest, RSTART + RLENGTH)
        split(s, kv, "="); a = kv[1]; gsub(/ /, "", a); t = kv[2]; gsub(/ /, "", t)
        n = split(t, parts, "."); print "A\t" $1 "\t" a "\t" parts[n]
      }
      rest = line
      while (match(rest, /[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_'\'']*/)) {
        print "R\t" $1 "\t" substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
      }
    }'
  # W <Module.name> <reason>: the allowlist without comments or blanks.
  sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" |
    awk '{ k = $1; $1 = ""; sub(/^ +/, ""); print "W\t" k "\t" $0 }'
} | awk -F '\t' '
  function hit(k, f) { if (!((k, f) in seen)) { seen[k, f] = 1; nfiles[k]++ } }
  # The val line of [name] in [file] and the lines after it, up to the
  # next item: its signature and doc comment.
  function doc(file, name,    line, block, on) {
    block = ""; on = 0
    while ((getline line < file) > 0) {
      if (!on) { if (line ~ ("^ *val " name " *:")) { on = 1; block = line } }
      else if (line ~ /^ *(val|type|module|exception) / || line ~ /^ *end *$/) break
      else block = block "\n" line
    }
    close(file)
    return block
  }
  function fail(msg) { print "dead_exports.sh: " msg > "/dev/stderr"; bad = 1 }
  $1 == "A" { alias[$2, $3] = $4; next }
  $1 == "R" {
    split($3, q, "."); hit($3, $2)
    if (($2, q[1]) in alias) hit(alias[$2, q[1]] "." q[2], $2)
    next
  }
  $1 == "E" { ne++; key[ne] = $2; own[$2] = $3; mli[$2] = $4; next }
  $1 == "W" { nw++; wkey[nw] = $2; reason[$2] = $3; next }
  END {
    for (i = 1; i <= ne; i++) {
      k = key[i]
      if (nfiles[k] - (((k, own[k]) in seen) ? 1 : 0) > 0) called[k] = 1
      else if (!(k in reason)) {
        fail(mli[k] ": " k " has no caller outside its module; delete or hide it, or list it in '"$allow"' with its reason")
        dead++
      }
    }
    for (i = 1; i <= nw; i++) {
      k = wkey[i]; r = reason[k]
      if (!(k in mli)) fail("'"$allow"': " k " is not exported from lib/ (stale entry)")
      else if (k in called) fail("'"$allow"': " k " has a caller outside its module (stale entry)")
      else if (r != "Test oracle" && r != "Corruption hook" && r != "Unit-tested")
        fail("'"$allow"': " k ": unknown reason \"" r "\"")
      else {
        split(k, q, ".")
        if (index(doc(mli[k], q[2]), r) == 0)
          fail(mli[k] ": the doc comment of " k " does not say \"" r "\"")
      }
    }
    printf "dead_exports.sh: %d exported values, %d allowlisted, %d unlisted without a caller\n", ne, nw, dead
    exit bad
  }'
