# Fails when the library reads the process environment outside the three
# places allowed to: MESH_LOG (common/log.cpp), the MESH_BENCH_* sizes read
# by BenchOptions::fromEnvironment (harness/experiment.cpp) and the
# MESH_TOPOLOGY_CACHE_MB memory budget (runner/snapshot_cache.cpp). Every
# other choice of world or code path comes from the caller's config.
#
#   cmake -DMESH_SRC_DIR=<repo>/src/mesh -P tests/env_guard.cmake

if(NOT MESH_SRC_DIR)
  message(FATAL_ERROR "env_guard: pass -DMESH_SRC_DIR=<path to src/mesh>")
endif()

file(GLOB_RECURSE sources RELATIVE "${MESH_SRC_DIR}"
     "${MESH_SRC_DIR}/*.cpp" "${MESH_SRC_DIR}/*.hpp")
if(NOT sources)
  message(FATAL_ERROR "env_guard: no sources under ${MESH_SRC_DIR}")
endif()

set(violations "")
foreach(rel IN LISTS sources)
  if(rel STREQUAL "common/log.cpp" OR rel STREQUAL "harness/experiment.cpp")
    continue()
  endif()
  file(STRINGS "${MESH_SRC_DIR}/${rel}" hits REGEX "getenv")
  foreach(line IN LISTS hits)
    if(rel STREQUAL "runner/snapshot_cache.cpp" AND
       line MATCHES "getenv\\(\"MESH_TOPOLOGY_CACHE_MB\"\\)")
      continue()
    endif()
    string(STRIP "${line}" line)
    string(APPEND violations "\n  ${rel}: ${line}")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "env_guard: getenv outside the allowed reads:${violations}")
endif()
list(LENGTH sources count)
message(STATUS "env_guard: ${count} files clean")
