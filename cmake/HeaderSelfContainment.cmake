# Every public header must compile as its own translation unit (no hidden
# include-order dependencies). For each src/**/*.hpp and baselines/**/*.hpp
# a one-line TU is generated that includes only that header; the
# `rhhh_header_check` target compiles them all and nothing links them. CI
# builds the target; locally,
# `cmake --build build --target rhhh_header_check`.

set(_rhhh_header_tus "")
foreach(root IN ITEMS src baselines)
  file(GLOB_RECURSE _rhhh_public_headers CONFIGURE_DEPENDS
    ${CMAKE_CURRENT_SOURCE_DIR}/${root}/*.hpp)
  foreach(hdr IN LISTS _rhhh_public_headers)
    file(RELATIVE_PATH rel ${CMAKE_CURRENT_SOURCE_DIR}/${root} ${hdr})
    string(REPLACE "/" "_" tu_name ${root}/${rel})
    string(REPLACE ".hpp" ".cpp" tu_name ${tu_name})
    set(tu ${CMAKE_BINARY_DIR}/header_check/${tu_name})
    file(WRITE ${tu} "#include \"${rel}\"  // self-containment check\n")
    list(APPEND _rhhh_header_tus ${tu})
  endforeach()
endforeach()

add_library(rhhh_header_check OBJECT EXCLUDE_FROM_ALL ${_rhhh_header_tus})
target_include_directories(rhhh_header_check PRIVATE
  ${CMAKE_CURRENT_SOURCE_DIR}/src ${CMAKE_CURRENT_SOURCE_DIR}/baselines)
target_link_libraries(rhhh_header_check PRIVATE rhhh_warnings)
