//! End-to-end runtime tests: build small MiniHPC repositories with the real
//! toolchain and execute them, covering each execution model and the failure
//! modes the ParEval-Repo harness relies on.

use minihpc_build::{build_repo, BuildRequest};
use minihpc_lang::repo::SourceRepo;
use minihpc_runtime::{run, RunConfig, RuntimeErrorKind};

fn build_and_run(repo: &SourceRepo, args: &[&str]) -> minihpc_runtime::RunResult {
    let out = build_repo(repo, &BuildRequest::new("app"));
    assert!(out.succeeded(), "build failed:\n{}", out.log.text());
    run(
        &out.executable.unwrap(),
        RunConfig::with_args(args.iter().copied()),
    )
}

fn cuda_xor_repo() -> SourceRepo {
    SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cu\n\tnvcc -O2 -arch=sm_80 -o app main.cu\n",
        )
        .with_file(
            "main.cu",
            r#"
#include <cuda_runtime.h>
#include <stdio.h>
#include <stdlib.h>

__global__ void cellsXOR(const int* input, int* output, size_t N) {
    int i = blockIdx.y * blockDim.y + threadIdx.y;
    int j = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < N && j < N) {
        int count = 0;
        if (i > 0 && input[(i - 1) * N + j] == 1) count++;
        if (i < N - 1 && input[(i + 1) * N + j] == 1) count++;
        if (j > 0 && input[i * N + (j - 1)] == 1) count++;
        if (j < N - 1 && input[i * N + (j + 1)] == 1) count++;
        output[i * N + j] = (count == 1) ? 1 : 0;
    }
}

int main(int argc, char** argv) {
    int N = atoi(argv[1]);
    int* h_in = (int*)malloc(N * N * sizeof(int));
    int* h_out = (int*)malloc(N * N * sizeof(int));
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            h_in[i * N + j] = (i + j) % 2;
    int* d_in;
    int* d_out;
    cudaMalloc(&d_in, N * N * sizeof(int));
    cudaMalloc(&d_out, N * N * sizeof(int));
    cudaMemcpy(d_in, h_in, N * N * sizeof(int), cudaMemcpyHostToDevice);
    dim3 block(8, 8);
    dim3 grid((N + 7) / 8, (N + 7) / 8);
    cellsXOR<<<grid, block>>>(d_in, d_out, N);
    cudaDeviceSynchronize();
    cudaMemcpy(h_out, d_out, N * N * sizeof(int), cudaMemcpyDeviceToHost);
    int total = 0;
    for (int i = 0; i < N * N; i++) total += h_out[i];
    printf("checksum %d\n", total);
    cudaFree(d_in);
    cudaFree(d_out);
    free(h_in);
    free(h_out);
    return 0;
}
"#,
        )
}

/// Checksum of the 4-point XOR stencil over the checkerboard input, computed
/// independently in Rust.
fn xor_checksum(n: usize) -> i64 {
    let input: Vec<i64> = (0..n * n).map(|k| ((k / n + k % n) % 2) as i64).collect();
    let mut total = 0;
    for i in 0..n {
        for j in 0..n {
            let mut count = 0;
            if i > 0 && input[(i - 1) * n + j] == 1 {
                count += 1;
            }
            if i < n - 1 && input[(i + 1) * n + j] == 1 {
                count += 1;
            }
            if j > 0 && input[i * n + (j - 1)] == 1 {
                count += 1;
            }
            if j < n - 1 && input[i * n + (j + 1)] == 1 {
                count += 1;
            }
            total += i64::from(count == 1);
        }
    }
    total
}

#[test]
fn cuda_stencil_runs_and_matches_reference() {
    let r = build_and_run(&cuda_xor_repo(), &["16"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), format!("checksum {}", xor_checksum(16)));
    assert!(r.telemetry.ran_on_device());
    assert!(r.telemetry.device_parallel());
}

#[test]
fn cuda_race_detector_clean_on_disjoint_writes() {
    let out = build_repo(&cuda_xor_repo(), &BuildRequest::new("app"));
    let exe = out.executable.unwrap();
    let mut cfg = RunConfig::with_args(["8"]);
    cfg.detect_races = true;
    let r = run(&exe, cfg);
    assert!(r.races.is_empty(), "{:?}", r.races);
}

#[test]
fn missing_memcpy_back_gives_wrong_answer_not_crash() {
    // Classic translation bug: result read from host buffer that was never
    // copied back. Output is all zeros → checksum 0.
    let mut repo = cuda_xor_repo();
    let src = repo.get("main.cu").unwrap().to_string();
    let broken = src.replace(
        "    cudaMemcpy(h_out, d_out, N * N * sizeof(int), cudaMemcpyDeviceToHost);\n",
        "",
    );
    repo.add("main.cu", broken);
    let r = build_and_run(&repo, &["16"]);
    assert!(r.error.is_none());
    assert_eq!(r.stdout.trim(), "checksum 0");
}

#[test]
fn device_pointer_dereferenced_on_host_is_illegal_access() {
    let mut repo = cuda_xor_repo();
    let src = repo.get("main.cu").unwrap().to_string();
    // Read the device pointer directly from host code.
    let broken = src.replace(
        "    int total = 0;\n    for (int i = 0; i < N * N; i++) total += h_out[i];",
        "    int total = 0;\n    for (int i = 0; i < N * N; i++) total += d_out[i];",
    );
    repo.add("main.cu", broken);
    let r = build_and_run(&repo, &["8"]);
    let err = r.error.expect("expected an illegal access");
    assert_eq!(err.kind, RuntimeErrorKind::IllegalAccess);
}

fn omp_offload_repo(pragma: &str) -> SourceRepo {
    let main = format!(
        r#"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {{
    int N = atoi(argv[1]);
    int* a = (int*)malloc(N * sizeof(int));
    for (int i = 0; i < N; i++) a[i] = 0;
    {pragma}
    for (int i = 0; i < N; i++) {{
        a[i] = i * 2;
    }}
    long total = 0;
    for (int i = 0; i < N; i++) total += a[i];
    printf("total %ld\n", total);
    free(a);
    return 0;
}}
"#
    );
    SourceRepo::new()
        .with_file(
            "Makefile",
            "CXX = clang++\nFLAGS = -O2 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda\n\
             app: main.cpp\n\t$(CXX) $(FLAGS) -o app main.cpp\n",
        )
        .with_file("main.cpp", main)
}

#[test]
fn omp_offload_loop_runs_on_device() {
    let repo =
        omp_offload_repo("#pragma omp target teams distribute parallel for map(tofrom: a[0:N])");
    let r = build_and_run(&repo, &["100"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), format!("total {}", 100i64 * 99));
    assert!(r.telemetry.ran_on_device());
    assert!(r.telemetry.device_parallel());
}

#[test]
fn listing4_style_missing_target_runs_on_host() {
    // Paper Listing 4: `teams distribute` without `target` — builds, runs,
    // produces the right numbers, but never touches the device.
    let repo = omp_offload_repo("#pragma omp teams distribute");
    let r = build_and_run(&repo, &["100"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), format!("total {}", 100i64 * 99));
    assert!(
        !r.telemetry.ran_on_device(),
        "host-only execution must be visible to the harness"
    );
}

#[test]
fn missing_map_from_loses_results() {
    let repo = omp_offload_repo("#pragma omp target teams distribute parallel for map(to: a[0:N])");
    let r = build_and_run(&repo, &["100"]);
    assert!(r.error.is_none());
    assert_eq!(r.stdout.trim(), "total 0", "results must not copy back");
}

#[test]
fn unmapped_pointer_in_target_region_is_illegal() {
    let repo = omp_offload_repo("#pragma omp target teams distribute parallel for");
    let r = build_and_run(&repo, &["16"]);
    let err = r.error.expect("expected illegal access");
    assert_eq!(err.kind, RuntimeErrorKind::IllegalAccess);
}

#[test]
fn omp_threads_parallel_for_with_reduction() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cpp\n\tg++ -O2 -fopenmp -o app main.cpp\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {
    int N = atoi(argv[1]);
    double total = 0.0;
    #pragma omp parallel for reduction(+: total)
    for (int i = 0; i < N; i++) {
        total += i * 0.5;
    }
    printf("sum %.1f\n", total);
    return 0;
}
"#,
        );
    let out = build_repo(&repo, &BuildRequest::new("app"));
    assert!(out.succeeded(), "{}", out.log.text());
    let exe = out.executable.unwrap();

    let seq = run(&exe, RunConfig::with_args(["1000"]));
    assert_eq!(seq.stdout.trim(), "sum 249750.0");
    assert_eq!(seq.telemetry.host_parallel_regions, 1);
    assert!(!seq.telemetry.ran_on_device());

    let mut cfg = RunConfig::with_args(["1000"]);
    cfg.parallel = true;
    let par = run(&exe, cfg);
    assert_eq!(par.stdout, seq.stdout, "parallel reduction must agree");
}

fn omp_threads_repo(main: &str) -> SourceRepo {
    SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cpp\n\tg++ -O2 -fopenmp -o app main.cpp\n",
        )
        .with_file("main.cpp", main)
}

#[test]
fn default_worker_count_is_four_on_every_host() {
    let r = build_and_run(
        &omp_threads_repo(
            r#"
#include <omp.h>
#include <stdio.h>

int main() {
    printf("%d\n", omp_get_max_threads());
    return 0;
}
"#,
        ),
        &[],
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "4\n");
}

#[test]
fn parallel_reduction_folds_partials_in_worker_order() {
    // Four one-element chunks whose float sum depends on the fold order:
    // ((1e16 + 1) - 1e16) + 1 is 1, while other orders give 0 or 2.
    let out = build_repo(
        &omp_threads_repo(
            r#"
#include <stdio.h>

int main() {
    double vals[4] = {1e16, 1.0, -1e16, 1.0};
    double total = 0.0;
    #pragma omp parallel for reduction(+: total)
    for (int i = 0; i < 4; i++) {
        total += vals[i];
    }
    printf("total %.1f\n", total);
    return 0;
}
"#,
        ),
        &BuildRequest::new("app"),
    );
    assert!(out.succeeded(), "{}", out.log.text());
    let exe = out.executable.unwrap();
    for _ in 0..20 {
        let cfg = RunConfig {
            parallel: true,
            workers: 4,
            ..RunConfig::default()
        };
        let r = run(&exe, cfg);
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.stdout, "total 1.0\n");
    }
}

#[test]
fn shared_write_recorder_sees_dropped_reduction_race() {
    // The same accumulator loop with and without its reduction clause: the
    // opt-in recorder must stay silent on the clean version and flag the
    // shared scalar on the racy one — the dynamic ground truth the static
    // analyzer's `raw-reduction` verdict is cross-validated against.
    let program = |pragma: &str| {
        SourceRepo::new()
            .with_file(
                "Makefile",
                "app: main.cpp\n\tg++ -O2 -fopenmp -o app main.cpp\n",
            )
            .with_file(
                "main.cpp",
                format!(
                    r#"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {{
    int N = atoi(argv[1]);
    long total = 0;
    {pragma}
    for (int i = 0; i < N; i++) {{
        total += i;
    }}
    printf("total %ld\n", total);
    return 0;
}}
"#
                ),
            )
    };
    let race_of = |pragma: &str| -> Vec<String> {
        let out = build_repo(&program(pragma), &BuildRequest::new("app"));
        assert!(out.succeeded(), "{}", out.log.text());
        let mut cfg = RunConfig::with_args(["1000"]);
        cfg.parallel = true;
        cfg.workers = 4;
        cfg.record_shared_writes = true;
        run(&out.executable.unwrap(), cfg).races
    };
    let clean = race_of("#pragma omp parallel for reduction(+: total)");
    assert!(clean.is_empty(), "reduction clause privatizes: {clean:?}");
    let racy = race_of("#pragma omp parallel for");
    assert!(
        racy.iter().any(|r| r.contains("'total'")),
        "dropped clause must surface as a conflicting shared write: {racy:?}"
    );
    // Off by default: the same racy binary reports nothing.
    let out = build_repo(
        &program("#pragma omp parallel for"),
        &BuildRequest::new("app"),
    );
    let mut cfg = RunConfig::with_args(["1000"]);
    cfg.parallel = true;
    cfg.workers = 4;
    let silent = run(&out.executable.unwrap(), cfg);
    assert!(silent.races.is_empty());
}

#[test]
fn kokkos_parallel_for_and_reduce() {
    let repo = SourceRepo::new()
        .with_file(
            "CMakeLists.txt",
            "cmake_minimum_required(VERSION 3.16)\nproject(app LANGUAGES CXX)\n\
             find_package(Kokkos REQUIRED)\nadd_executable(app main.cpp)\n\
             target_link_libraries(app PRIVATE Kokkos::kokkos)\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <Kokkos_Core.hpp>
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {
    int N = atoi(argv[1]);
    Kokkos::initialize();
    {
        Kokkos::View<double*> d("d", N);
        Kokkos::parallel_for(N, KOKKOS_LAMBDA(int i) { d(i) = 2.0 * i; });
        Kokkos::fence();
        double total = 0.0;
        Kokkos::parallel_reduce(N, KOKKOS_LAMBDA(int i, double& lsum) { lsum += d(i); }, total);
        printf("total %.1f\n", total);
    }
    Kokkos::finalize();
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &["100"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(
        r.stdout.trim(),
        format!("total {:.1}", 2.0 * (99.0 * 100.0 / 2.0))
    );
    assert!(r.telemetry.ran_on_device());
    assert!(r.telemetry.device_parallel());
}

#[test]
fn kokkos_mirror_and_deep_copy() {
    let repo = SourceRepo::new()
        .with_file(
            "CMakeLists.txt",
            "cmake_minimum_required(VERSION 3.16)\nproject(app LANGUAGES CXX)\n\
             find_package(Kokkos REQUIRED)\nadd_executable(app main.cpp)\n\
             target_link_libraries(app PRIVATE Kokkos::kokkos)\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <Kokkos_Core.hpp>
#include <stdio.h>

int main() {
    Kokkos::initialize();
    {
        Kokkos::View<int*> d("d", 8);
        Kokkos::parallel_for(8, KOKKOS_LAMBDA(int i) { d(i) = i * i; });
        Kokkos::fence();
        Kokkos::View<int*> h = Kokkos::create_mirror_view(d);
        Kokkos::deep_copy(h, d);
        int total = 0;
        for (int i = 0; i < 8; i++) total += h(i);
        printf("%d\n", total);
    }
    Kokkos::finalize();
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), "140");
}

#[test]
fn curand_deterministic_and_in_range() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cu\n\tnvcc -O2 -arch=sm_80 -o app main.cu\n",
        )
        .with_file(
            "main.cu",
            r#"
#include <cuda_runtime.h>
#include <curand_kernel.h>
#include <stdio.h>

__global__ void init_rng(curandState* states, int n, int seed) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        curand_init(seed, i, 0, &states[i]);
    }
}

__global__ void sample(curandState* states, float* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = curand_uniform(&states[i]);
    }
}

int main() {
    int n = 64;
    curandState* states;
    float* d_out;
    cudaMalloc(&states, n * sizeof(curandState));
    cudaMalloc(&d_out, n * sizeof(float));
    init_rng<<<2, 32>>>(states, n, 1234);
    sample<<<2, 32>>>(states, d_out, n);
    float* h = (float*)malloc(n * sizeof(float));
    cudaMemcpy(h, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
    int ok = 1;
    double sum = 0.0;
    for (int i = 0; i < n; i++) {
        if (h[i] <= 0.0 || h[i] > 1.0) ok = 0;
        sum += h[i];
    }
    printf("ok %d mean %.2f\n", ok, sum / n);
    return 0;
}
"#,
        );
    let r1 = build_and_run(&repo, &[]);
    assert!(r1.error.is_none(), "{:?}", r1.error);
    assert!(r1.stdout.starts_with("ok 1"), "{}", r1.stdout);
    let r2 = build_and_run(&repo, &[]);
    assert_eq!(r1.stdout, r2.stdout, "seeded RNG must be deterministic");
}

#[test]
fn infinite_loop_hits_step_limit() {
    let repo = SourceRepo::new()
        .with_file("Makefile", "app: main.cpp\n\tg++ -o app main.cpp\n")
        .with_file(
            "main.cpp",
            "int main() { int x = 0; while (1) { x = x + 1; } return x; }\n",
        );
    let out = build_repo(&repo, &BuildRequest::new("app"));
    let exe = out.executable.unwrap();
    let cfg = RunConfig {
        max_steps: 10_000,
        ..RunConfig::default()
    };
    let r = run(&exe, cfg);
    assert_eq!(r.error.unwrap().kind, RuntimeErrorKind::StepLimit);
}

#[test]
fn exit_code_propagates() {
    let repo = SourceRepo::new()
        .with_file("Makefile", "app: main.cpp\n\tg++ -o app main.cpp\n")
        .with_file(
            "main.cpp",
            "#include <stdlib.h>\nint main() { exit(3); return 0; }\n",
        );
    let r = build_and_run(&repo, &[]);
    assert_eq!(r.exit_code, 3);
}

#[test]
fn structs_and_functions_across_files() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cpp sim.cpp\n\tg++ -O2 -o app main.cpp sim.cpp\n",
        )
        .with_file(
            "sim.h",
            "typedef struct { double energy; int count; } State;\n\
             State* make_state(int n);\nvoid bump(State* s, double e);\n",
        )
        .with_file(
            "sim.cpp",
            "#include \"sim.h\"\n#include <stdlib.h>\n\
             State* make_state(int n) {\n    State* s = (State*)malloc(n * sizeof(State));\n    s[0].energy = 0.0;\n    s[0].count = 0;\n    return s;\n}\n\
             void bump(State* s, double e) {\n    s[0].energy += e;\n    s[0].count++;\n}\n",
        )
        .with_file(
            "main.cpp",
            "#include \"sim.h\"\n#include <stdio.h>\n\
             int main() {\n    State* s = make_state(1);\n    for (int i = 0; i < 10; i++) bump(s, 0.5);\n    printf(\"%.1f %d\\n\", s[0].energy, s[0].count);\n    return 0;\n}\n",
        );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), "5.0 10");
}

#[test]
fn target_data_region_with_inner_target_loops() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "CXX = clang++\nFLAGS = -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda\n\
             app: main.cpp\n\t$(CXX) $(FLAGS) -o app main.cpp\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {
    int N = atoi(argv[1]);
    int* in = (int*)malloc(N * sizeof(int));
    int* out = (int*)malloc(N * sizeof(int));
    for (int i = 0; i < N; i++) in[i] = i;
    #pragma omp target data map(to: in[0:N]) map(from: out[0:N])
    {
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < N; i++) {
            out[i] = in[i] * 3;
        }
    }
    long total = 0;
    for (int i = 0; i < N; i++) total += out[i];
    printf("%ld\n", total);
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &["50"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout.trim(), format!("{}", 3i64 * (49 * 50 / 2)));
    assert!(r.telemetry.ran_on_device());
}

#[test]
fn collapse2_device_loop() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "CXX = clang++\nFLAGS = -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda\n\
             app: main.cpp\n\t$(CXX) $(FLAGS) -o app main.cpp\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char** argv) {
    int N = atoi(argv[1]);
    int* grid = (int*)malloc(N * N * sizeof(int));
    #pragma omp target teams distribute parallel for collapse(2) map(from: grid[0:N*N])
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            grid[i * N + j] = i + j;
    long total = 0;
    for (int k = 0; k < N * N; k++) total += grid[k];
    printf("%ld\n", total);
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &["10"]);
    assert!(r.error.is_none(), "{:?}", r.error);
    // sum over i,j of (i+j) = 2 * N * (N-1)/2 * N = N^2 (N-1)
    assert_eq!(r.stdout.trim(), format!("{}", 10i64 * 10 * 9));
    assert_eq!(r.telemetry.max_device_parallelism, 100);
}

// ---------------------------------------------------------------------------
// Name resolution: which binding an identifier reaches, pinned on the
// constructs where scoping, capture and rebinding interact.
// ---------------------------------------------------------------------------

fn make_repo(main: &str) -> SourceRepo {
    SourceRepo::new()
        .with_file("Makefile", "app: main.cpp\n\tg++ -O2 -o app main.cpp\n")
        .with_file("main.cpp", main)
}

fn kokkos_repo(main: &str) -> SourceRepo {
    SourceRepo::new()
        .with_file(
            "CMakeLists.txt",
            "cmake_minimum_required(VERSION 3.16)\nproject(app LANGUAGES CXX)\n\
             find_package(Kokkos REQUIRED)\nadd_executable(app main.cpp)\n\
             target_link_libraries(app PRIVATE Kokkos::kokkos)\n",
        )
        .with_file("main.cpp", main)
}

#[test]
fn inner_scope_shadowing_reaches_the_innermost_binding() {
    let r = build_and_run(
        &make_repo(
            r#"
#include <stdio.h>

int g = 7;

int show() { return g; }

int main() {
    int x = 1;
    {
        int x = 2;
        x = x + 10;
        printf("%d\n", x);
        int g = 100;
        g = g + 1;
        printf("%d %d\n", g, show());
    }
    printf("%d\n", x);
    for (int x = 5; x < 7; x++) printf("%d\n", x);
    printf("%d %d\n", x, g);
    return 0;
}
"#,
        ),
        &[],
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "12\n101 7\n1\n5\n6\n1 7\n");
}

#[test]
fn lambda_captures_by_value_at_creation() {
    // Each evaluation of the lambda copies `k` as it is then; a write to
    // the copy inside the body is seen neither by the next index nor by
    // the enclosing scope.
    let r = build_and_run(
        &kokkos_repo(
            r#"
#include <Kokkos_Core.hpp>
#include <stdio.h>

int main() {
    Kokkos::initialize();
    {
        Kokkos::View<int*> d("d", 4);
        int k = 3;
        for (int r = 0; r < 2; r++) {
            Kokkos::parallel_for(4, KOKKOS_LAMBDA(int i) {
                d(i) = d(i) + k * i;
                k = 100;
            });
            k = k + 1;
        }
        Kokkos::fence();
        Kokkos::View<int*> h = Kokkos::create_mirror_view(d);
        Kokkos::deep_copy(h, d);
        printf("%d %d %d %d k=%d\n", h(0), h(1), h(2), h(3), k);
    }
    Kokkos::finalize();
    return 0;
}
"#,
        ),
        &[],
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "0 7 14 21 k=5\n");
}

#[test]
fn map_clause_rebinds_a_host_pointer_for_the_region_only() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "CXX = clang++\nFLAGS = -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda\n\
             app: main.cpp\n\t$(CXX) $(FLAGS) -o app main.cpp\n",
        )
        .with_file(
            "main.cpp",
            r#"
#include <stdio.h>
#include <stdlib.h>

int main() {
    int N = 8;
    int* a = (int*)malloc(N * sizeof(int));
    for (int i = 0; i < N; i++) a[i] = i;
    int* keep = a;
    #pragma omp target data map(tofrom: a[0:N])
    {
        printf("inside %d\n", a == keep);
        #pragma omp target teams distribute parallel for
        for (int i = 0; i < N; i++) {
            a[i] = a[i] * 2;
        }
    }
    printf("after %d %d\n", a == keep, a[3]);
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "inside 0\nafter 1 6\n");
    assert!(r.telemetry.ran_on_device());
}

#[test]
fn locals_shadow_cuda_builtins_and_constants() {
    let repo = SourceRepo::new()
        .with_file(
            "Makefile",
            "app: main.cu\n\tnvcc -O2 -arch=sm_80 -o app main.cu\n",
        )
        .with_file(
            "main.cu",
            r#"
#include <cuda_runtime.h>
#include <stdio.h>
#include <stdlib.h>

__global__ void fill(int* out) {
    int t = threadIdx.x;
    {
        int threadIdx = 40;
        out[t] = threadIdx + t;
    }
}

int main() {
    int* d;
    cudaMalloc(&d, 4 * sizeof(int));
    fill<<<1, 4>>>(d);
    int* h = (int*)malloc(4 * sizeof(int));
    cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);
    int RAND_MAX = 9;
    printf("%d %d %d\n", h[0], h[3], RAND_MAX);
    return 0;
}
"#,
        );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "40 43 9\n");
}

#[test]
fn local_view_shadows_a_same_named_function() {
    let r = build_and_run(
        &kokkos_repo(
            r#"
#include <Kokkos_Core.hpp>
#include <stdio.h>

int v(int i) { return 1000 + i; }

int main() {
    Kokkos::initialize();
    printf("%d\n", v(1));
    {
        Kokkos::View<int*> v("v", 4);
        Kokkos::parallel_for(4, KOKKOS_LAMBDA(int i) { v(i) = i * 3; });
        Kokkos::fence();
        Kokkos::View<int*> h = Kokkos::create_mirror_view(v);
        Kokkos::deep_copy(h, v);
        printf("%d\n", h(2));
    }
    printf("%d\n", v(2));
    Kokkos::finalize();
    return 0;
}
"#,
        ),
        &[],
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "1001\n6\n1002\n");
}

const SNAPSHOT_LOOP: &str = r#"
#include <stdio.h>

int g = 0;

void bump(int i) {
    int scratch = i;
    scratch = scratch + 1;
    g = scratch;
}

int main() {
    int N = 10;
    long total = 0;
    int scale = 3;
    int last = -1;
    #pragma omp parallel for reduction(+: total)
    for (int i = 0; i < N; i++) {
        int t = i * scale;
        t = t + 1;
        total += t;
        last = i;
        bump(i);
    }
    printf("%ld %d %d\n", total, last, g);
    return 0;
}
"#;

#[test]
fn parallel_workers_run_on_snapshots_and_fold_reductions() {
    let out = build_repo(&omp_threads_repo(SNAPSHOT_LOOP), &BuildRequest::new("app"));
    assert!(out.succeeded(), "{}", out.log.text());
    let exe = out.executable.unwrap();
    let seq = run(&exe, RunConfig::default());
    assert_eq!(seq.stdout, "145 9 10\n");
    // Four workers over chunks of 3, 3, 3 and 1 iterations: the reduction
    // folds back, a plain write to a shared local stays in the worker's
    // snapshot, and a callee's write to a global is seen by everyone.
    let par = run(
        &exe,
        RunConfig {
            parallel: true,
            workers: 4,
            ..RunConfig::default()
        },
    );
    assert!(par.error.is_none(), "{:?}", par.error);
    assert_eq!(par.stdout, "145 -1 10\n");
}

#[test]
fn shared_write_recorder_separates_shared_from_private() {
    // `last` (a snapshot local) and `g` (a global written by a callee) are
    // shared; the body local `t`, the loop variable, the callee's
    // `scratch` and the reduction accumulator are not.
    let out = build_repo(&omp_threads_repo(SNAPSHOT_LOOP), &BuildRequest::new("app"));
    let exe = out.executable.unwrap();
    let r = run(
        &exe,
        RunConfig {
            parallel: true,
            workers: 4,
            record_shared_writes: true,
            ..RunConfig::default()
        },
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.race_vars, vec!["g".to_string(), "last".to_string()]);
    assert_eq!(r.races.len(), 2, "{:?}", r.races);
}

#[test]
fn declared_type_ends_with_its_scope() {
    // The inner `int x` must not change how the outer `double x` converts
    // an assignment once the inner scope has closed.
    let r = build_and_run(
        &make_repo(
            r#"
#include <stdio.h>

int main() {
    double x = 0.5;
    {
        int x = 3;
        x = 2.75;
        printf("%d\n", x);
    }
    x = 1.5;
    printf("%f\n", x);
    return 0;
}
"#,
        ),
        &[],
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "2\n1.500000\n");
}

#[test]
fn range_policy_without_both_bounds_is_a_run_time_error() {
    // The build accepts any argument count here; the run must fail with
    // an error, not abort the harness.
    let r = build_and_run(
        &kokkos_repo(
            r#"
#include <Kokkos_Core.hpp>

int main() {
    Kokkos::initialize();
    {
        Kokkos::View<int*> d("d", 4);
        Kokkos::parallel_for(Kokkos::RangePolicy<>(4), KOKKOS_LAMBDA(int i) { d(i) = i; });
    }
    Kokkos::finalize();
    return 0;
}
"#,
        ),
        &[],
    );
    let err = r.error.expect("a one-argument RangePolicy must fail");
    assert_eq!(err.kind, RuntimeErrorKind::TypeError);
}

#[test]
fn struct_fields_read_and_write_in_every_storage() {
    // Nested fields of a local, a global and heap elements, through `.`,
    // `->` and `[i].`, with compound assignment and increments, after each
    // `in` is assigned a whole struct.
    let repo = omp_threads_repo(
        r#"
#include <stdio.h>
#include <stdlib.h>

typedef struct { int x; double y; } Inner;
typedef struct { Inner in; int n; } Outer;

Outer g;

int main() {
    Inner z;
    z.x = 0;
    z.y = 0.0;
    Outer o;
    o.in = z;
    g.in = z;
    o.n = 2;
    o.in.x = 3;
    o.in.y = 0.5;
    o.in.x += o.n;
    o.in.y *= 4;
    o.n++;
    g.in.x = o.in.x * 10;
    g.n = g.in.x + 1;
    g.in.x -= 8;
    Outer* p = (Outer*)malloc(2 * sizeof(Outer));
    p[1].in = z;
    p[1].n = 7;
    p[1].in.x = o.n;
    p->n = 9;
    p[1].in.y = p->n + 0.25;
    p[1].in.x++;
    printf("%d %.1f %d %d %d %d %d %d %.2f\n", o.in.x, o.in.y, o.n, g.in.x, g.n,
           p->n, p[1].n, p[1].in.x, p[1].in.y);
    free(p);
    return 0;
}
"#,
    );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "5 2.0 3 42 51 9 7 4 9.25\n");
}

#[test]
fn nested_struct_fields_start_as_zeroed_structs() {
    // A struct-typed field is itself a zeroed struct, as in C: its fields
    // can be read and written without assigning the field first, two levels
    // deep, in a local, a global and a heap element.
    let repo = omp_threads_repo(
        r#"
#include <stdio.h>
#include <stdlib.h>

typedef struct { int x; double y; } Inner;
typedef struct { Inner in; int n; } Outer;
typedef struct { Outer out; Inner in; } Deep;

Outer g;

int main() {
    Outer o;
    o.in.x = 3;
    g.in.y = 1.5;
    Deep d;
    d.out.in.x = 4;
    d.in.x += 2;
    Outer* p = (Outer*)malloc(2 * sizeof(Outer));
    p[1].in.x = 5;
    printf("%d %.1f %d %.1f %d %d %d %d\n", o.in.x, o.in.y, g.in.x, g.in.y, d.out.in.x,
           d.out.n, d.in.x, p[1].in.x);
    free(p);
    return 0;
}
"#,
    );
    let r = build_and_run(&repo, &[]);
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.stdout, "3 0.0 0 1.5 4 0 2 5\n");
}

#[test]
fn shared_write_recorder_sees_struct_field_writes() {
    // A field write is a write to the variable that holds the struct: the
    // snapshot local `acc` and the global `g` are shared, the body local
    // `t` is not.
    let out = build_repo(
        &omp_threads_repo(
            r#"
#include <stdio.h>

typedef struct { int n; int m; } Pair;

Pair g;

int main() {
    Pair acc;
    acc.n = 0;
    #pragma omp parallel for
    for (int i = 0; i < 8; i++) {
        Pair t;
        t.n = i;
        acc.n = t.n;
        g.m = i;
    }
    printf("%d\n", g.m);
    return 0;
}
"#,
        ),
        &BuildRequest::new("app"),
    );
    assert!(out.succeeded(), "{}", out.log.text());
    let r = run(
        &out.executable.unwrap(),
        RunConfig {
            parallel: true,
            workers: 4,
            record_shared_writes: true,
            ..RunConfig::default()
        },
    );
    assert!(r.error.is_none(), "{:?}", r.error);
    assert_eq!(r.race_vars, vec!["acc".to_string(), "g".to_string()]);
}

/// `files` built into `app` from `sources`, linked in the order listed.
fn run_linked_in_order(files: &[(&str, &str)], sources: &[&str]) -> String {
    let sources = sources.join(" ");
    let makefile = format!("app: {sources}\n\tg++ -O2 -o app {sources}\n");
    let repo = files
        .iter()
        .fold(SourceRepo::new(), |repo, &(path, src)| {
            repo.with_file(path, src)
        })
        .with_file("Makefile", makefile);
    let r = build_and_run(&repo, &[]);
    assert_eq!(r.error, None);
    r.stdout
}

#[test]
fn a_macro_defined_differently_reads_its_last_linked_copy() {
    // The two objects' copies of `N` differ, so both stay, and every use
    // reads the copy linked last.
    let files = [
        ("n.h", "#define N 4\n"),
        (
            "main.cpp",
            "#include <stdio.h>\n#include \"n.h\"\n\
             int main() { printf(\"%d\\n\", N); return 0; }",
        ),
        ("other.cpp", "#define N 5\nvoid other(void) { }"),
    ];
    assert_eq!(
        run_linked_in_order(&files, &["main.cpp", "other.cpp"]),
        "5\n"
    );
    assert_eq!(
        run_linked_in_order(&files, &["other.cpp", "main.cpp"]),
        "4\n"
    );
}
