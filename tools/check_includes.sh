#!/bin/sh
# Lint: application code (examples/, tools/) must consume the library
# through the umbrella header only. Per-module headers are include
# points for code *inside* src/; everything outside goes through
# `#include "tbm.h"` so the public surface stays a single, finished
# API.
#
# Usage: tools/check_includes.sh [repo-root]
set -eu

root="${1:-.}"
fail=0

for file in "$root"/examples/*.cpp "$root"/examples/*.cc \
            "$root"/tools/*.cpp "$root"/tools/*.cc; do
  [ -e "$file" ] || continue
  # Quoted includes other than "tbm.h" reach into module headers.
  bad=$(grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"' "$file" |
        grep -v '"tbm\.h"' || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file includes module headers directly:" >&2
    echo "$bad" >&2
    fail=1
  fi
done

# The inverse rule for library code: src/ modules (serve/ included)
# must name their exact dependencies, never the umbrella — including
# "tbm.h" from inside the library would hide layering violations and
# make every module depend on all of them.
for file in "$root"/src/*/*.h "$root"/src/*/*.cc \
            "$root"/src/*/*/*.h "$root"/src/*/*/*.cc; do
  [ -e "$file" ] || continue
  bad=$(grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"tbm\.h"' \
        "$file" || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file includes the umbrella header \"tbm.h\":" >&2
    echo "$bad" >&2
    fail=1
  fi
done

# Umbrella completeness: every public module header must be reachable
# through "tbm.h", or applications silently lose API surface. Headers
# internal to the library (cross-module metric singletons and the
# like) are excluded explicitly so additions to the list are reviewed.
internal_headers="base/sha256_internal.h blob/store_metrics.h codec/codec_metrics.h"

for file in "$root"/src/*/*.h "$root"/src/*/*/*.h; do
  [ -e "$file" ] || continue
  rel=${file#"$root"/src/}
  skip=0
  for internal in $internal_headers; do
    [ "$rel" = "$internal" ] && skip=1
  done
  [ "$skip" -eq 1 ] && continue
  if ! grep -qE "^#[[:space:]]*include[[:space:]]*\"$rel\"" \
       "$root"/src/tbm.h; then
    echo "ERROR: src/$rel is not included by src/tbm.h" >&2
    echo "  (add it to the umbrella, or list it in internal_headers" >&2
    echo "   in tools/check_includes.sh if it is library-internal)" >&2
    fail=1
  fi
done

# Event-loop discipline: the server core runs entirely on the reactor
# and must never park a thread in the blocking transport helpers —
# those exist for clients, tools, and tests. A blocking call slipped
# into the serve core stalls every connection on that loop. The client
# pump (connection.cc) and the helpers' own definitions (transport.*)
# are the only legitimate users inside src/serve/.
for file in "$root"/src/serve/server.cc "$root"/src/serve/reactor.cc \
            "$root"/src/serve/session.cc; do
  [ -e "$file" ] || continue
  bad=$(grep -nE \
        '(BlockingSend|BlockingRecv|WaitReadable|WaitWritable|ReadFrame|WriteFrame)[[:space:]]*\(' \
        "$file" || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file calls a blocking transport helper:" >&2
    echo "$bad" >&2
    echo "  (the server core is non-blocking; use the Reactor)" >&2
    fail=1
  fi
done

# The loop dispatches on the readiness the kernel reported. Asking a
# transport again with Poll() costs one poll(2) per ready connection
# per loop pass, so the server and the reactor never call it.
for file in "$root"/src/serve/server.cc "$root"/src/serve/reactor.cc; do
  [ -e "$file" ] || continue
  bad=$(grep -nE '(^|[^[:alnum:]_])Poll[[:space:]]*\(' "$file" || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file calls Transport::Poll():" >&2
    echo "$bad" >&2
    echo "  (dispatch on the readiness the Reactor reports)" >&2
    fail=1
  fi
done

# One file touches sockets: the TCP transport and the loopback
# socketpair live in serve/tcp_transport.cc.
for file in "$root"/src/*/*.h "$root"/src/*/*.cc \
            "$root"/src/*/*/*.h "$root"/src/*/*/*.cc; do
  [ -e "$file" ] || continue
  [ "$file" = "$root/src/serve/tcp_transport.cc" ] && continue
  bad=$(grep -nE \
        '^[[:space:]]*#[[:space:]]*include[[:space:]]*<sys/socket\.h>' \
        "$file" || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file includes <sys/socket.h>:" >&2
    echo "$bad" >&2
    echo "  (sockets belong in src/serve/tcp_transport.cc)" >&2
    fail=1
  fi
done

# Every vector intrinsic in src/ lives in base/simd.h, the one SIMD
# layer the kernels are written against, and in base/sha256.cc's SHA
# rounds: no other file includes an intrinsics header or names an x86
# (_mm…, __m128…, __m256…) or NEON (v…q_<type>, <type>x<n>_t)
# intrinsic or type.
for file in "$root"/src/*/*.h "$root"/src/*/*.cc \
            "$root"/src/*/*/*.h "$root"/src/*/*/*.cc; do
  [ -e "$file" ] || continue
  case "$file" in
    "$root/src/base/simd.h" | "$root/src/base/sha256.cc") continue ;;
  esac
  bad=$(grep -nE \
        -e '^[[:space:]]*#[[:space:]]*include[[:space:]]*<([a-z0-9]*intrin|arm_neon|arm_acle)\.h>' \
        -e '(^|[^[:alnum:]_])(_mm[0-9]*_|__m(64|128|256|512))' \
        -e '(^|[^[:alnum:]_])v[a-z0-9]+q_([a-z]+_)?[a-z]+[0-9]+' \
        -e '(^|[^[:alnum:]_])(u?int|float|poly)[0-9]+x[0-9]+(x[0-9]+)?_t' \
        "$file" || true)
  if [ -n "$bad" ]; then
    echo "ERROR: $file uses a vector intrinsic:" >&2
    echo "$bad" >&2
    echo "  (write the kernel against simd::F32x4/F32x8 or a helper" >&2
    echo "   in src/base/simd.h)" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "" >&2
  echo "Application code must include only \"tbm.h\"; library code" >&2
  echo "under src/ must never include it (see src/tbm.h); every" >&2
  echo "public src/ header must be listed in the umbrella." >&2
  exit 1
fi
echo "include lint OK: examples/ and tools/ use only \"tbm.h\";" \
     "src/ modules never do; umbrella covers all public headers;" \
     "serve core stays non-blocking and never polls a transport;" \
     "only serve/tcp_transport.cc includes <sys/socket.h>;" \
     "only base/simd.h and base/sha256.cc use vector intrinsics"
