# Adds the benchmark driver to the simulator's own build. run.py configures
# the repository's top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_INCLUDE=<this file> -DPERFBENCH_CALIB_LIB=<libperfbench_calib.a>
# so the driver is compiled with exactly the flags, definitions and options
# the simulator's libraries get. The target is added when the top-level
# directory has been processed (after every add_compile_options and
# add_compile_definitions there).
get_property(_perfbench_hooked GLOBAL PROPERTY PERFBENCH_HOOKED)
if(_perfbench_hooked)
  return()
endif()
set_property(GLOBAL PROPERTY PERFBENCH_HOOKED TRUE)

set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_driver)
  add_executable(neve_perfbench ${PERFBENCH_DIR}/main.cc)
  target_include_directories(neve_perfbench PRIVATE ${PERFBENCH_DIR})
  target_link_libraries(neve_perfbench PRIVATE neve_snap neve_workload
                        ${PERFBENCH_CALIB_LIB})
endfunction()

cmake_language(DEFER CALL perfbench_add_driver)
