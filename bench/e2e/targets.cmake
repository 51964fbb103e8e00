# Adds the end-to-end benchmark to the repository's top-level project without
# editing any of its CMake files. run.sh passes this file to the configure
# step as -DCMAKE_PROJECT_INCLUDE, so CMake reads it right after project().
# blr_core is defined later in that project; CMake resolves the link then.
add_executable(bench_e2e "${CMAKE_CURRENT_LIST_DIR}/bench_e2e.cpp")
target_compile_features(bench_e2e PRIVATE cxx_std_20)
target_compile_options(bench_e2e PRIVATE -Wall -Wextra)
target_link_libraries(bench_e2e PRIVATE blr_core)
