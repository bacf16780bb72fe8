//! The three custom XOR micro-applications (paper Sec. 5.1): nanoXOR (one
//! source file), microXORh (kernel in a header — compile-time dependency),
//! microXOR (kernel in a second source file — link-time dependency).
//!
//! The kernel is the paper's four-point XOR stencil (Listing 2): a cell
//! becomes 1 iff exactly one of its von-Neumann neighbours is 1.

use crate::{gt_cmake_kokkos, gt_make_omp_offload, share, Application, TestCase};
use minihpc_lang::model::ExecutionModel;
use minihpc_lang::repo::{Body, SourceRepo};
use std::collections::BTreeMap;

const CLI_SPEC: &str = "The program must be invoked as `<binary> <N> <iterations>` \
where N is the grid edge length and iterations the number of stencil steps. \
It must print three lines: `grid <N> iterations <iterations>`, `live <count>`, \
and `weighted <sum>`.";

const BUILD_SPEC: &str = "The build must produce an executable named after the \
application in the repository root. For OpenMP offload use clang++ (LLVM 19) with \
-fopenmp -fopenmp-targets=nvptx64-nvidia-cuda targeting an NVIDIA A100 (sm_80); \
for Kokkos use CMake with find_package(Kokkos) against Kokkos 4.5.01.";

// -- shared source fragments -------------------------------------------------

/// CUDA kernel (verbatim structure of paper Listing 2, plus iteration driver).
const CUDA_KERNEL: &str = r#"__global__ void cellsXOR(const int* input, int* output, size_t N) {
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
"#;

const OMP_KERNEL: &str = r#"void cellsXOR(const int* input, int* output, size_t N) {
    #pragma omp parallel for collapse(2)
    for (int i = 0; i < N; i++) {
        for (int j = 0; j < N; j++) {
            int count = 0;
            if (i > 0 && input[(i - 1) * N + j] == 1) count++;
            if (i < N - 1 && input[(i + 1) * N + j] == 1) count++;
            if (j > 0 && input[i * N + (j - 1)] == 1) count++;
            if (j < N - 1 && input[i * N + (j + 1)] == 1) count++;
            output[i * N + j] = (count == 1) ? 1 : 0;
        }
    }
}
"#;

/// CUDA host driver body shared by the three variants; `RUN` is either a
/// direct launch (nano) or a call to the runXOR helper (micro*).
fn cuda_main(includes: &str, run_step: &str, inline_kernel: bool) -> String {
    let kernel = if inline_kernel { CUDA_KERNEL } else { "" };
    format!(
        r#"#include <cuda_runtime.h>
#include <stdio.h>
#include <stdlib.h>
{includes}
{kernel}
int main(int argc, char** argv) {{
    if (argc < 3) {{
        printf("usage: xor <N> <iterations>\n");
        return 1;
    }}
    int N = atoi(argv[1]);
    int iterations = atoi(argv[2]);
    int* h_grid = (int*)malloc(N * N * sizeof(int));
    for (int i = 0; i < N; i++) {{
        for (int j = 0; j < N; j++) {{
            h_grid[i * N + j] = ((i * j + i + j) % 3 == 0) ? 1 : 0;
        }}
    }}
    int* d_in;
    int* d_out;
    cudaMalloc(&d_in, N * N * sizeof(int));
    cudaMalloc(&d_out, N * N * sizeof(int));
    cudaMemcpy(d_in, h_grid, N * N * sizeof(int), cudaMemcpyHostToDevice);
    for (int t = 0; t < iterations; t++) {{
        {run_step}
        cudaDeviceSynchronize();
        int* tmp = d_in;
        d_in = d_out;
        d_out = tmp;
    }}
    cudaMemcpy(h_grid, d_in, N * N * sizeof(int), cudaMemcpyDeviceToHost);
    long live = 0;
    long weighted = 0;
    for (int k = 0; k < N * N; k++) {{
        live += h_grid[k];
        weighted += h_grid[k] * (k % 97);
    }}
    printf("grid %d iterations %d\n", N, iterations);
    printf("live %ld\n", live);
    printf("weighted %ld\n", weighted);
    cudaFree(d_in);
    cudaFree(d_out);
    free(h_grid);
    return 0;
}}
"#
    )
}

fn omp_main(includes: &str, run_step: &str, inline_kernel: bool) -> String {
    let kernel = if inline_kernel { OMP_KERNEL } else { "" };
    format!(
        r#"#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
{includes}
{kernel}
int main(int argc, char** argv) {{
    if (argc < 3) {{
        printf("usage: xor <N> <iterations>\n");
        return 1;
    }}
    int N = atoi(argv[1]);
    int iterations = atoi(argv[2]);
    int* grid_in = (int*)malloc(N * N * sizeof(int));
    int* grid_out = (int*)malloc(N * N * sizeof(int));
    for (int i = 0; i < N; i++) {{
        for (int j = 0; j < N; j++) {{
            grid_in[i * N + j] = ((i * j + i + j) % 3 == 0) ? 1 : 0;
        }}
    }}
    for (int t = 0; t < iterations; t++) {{
        {run_step}
        int* tmp = grid_in;
        grid_in = grid_out;
        grid_out = tmp;
    }}
    long live = 0;
    long weighted = 0;
    for (int k = 0; k < N * N; k++) {{
        live += grid_in[k];
        weighted += grid_in[k] * (k % 97);
    }}
    printf("grid %d iterations %d\n", N, iterations);
    printf("live %ld\n", live);
    printf("weighted %ld\n", weighted);
    free(grid_in);
    free(grid_out);
    return 0;
}}
"#
    )
}

const CUDA_LAUNCH: &str = r#"dim3 block(16, 16);
        dim3 grid((N + 15) / 16, (N + 15) / 16);
        cellsXOR<<<grid, block>>>(d_in, d_out, N);"#;

fn cuda_makefile(binary: &str, sources: &[&str]) -> String {
    format!(
        "NVCC = nvcc\nNVCCFLAGS = -O2 -arch=sm_80\n\n{binary}: {srcs}\n\t$(NVCC) $(NVCCFLAGS) -o {binary} {srcs}\n\n.PHONY: clean\nclean:\n\trm -f {binary}\n",
        srcs = sources.join(" "),
    )
}

fn omp_makefile(binary: &str, sources: &[&str]) -> String {
    format!(
        "CXX = g++\nCXXFLAGS = -O2 -fopenmp\n\n{binary}: {srcs}\n\t$(CXX) $(CXXFLAGS) -o {binary} {srcs}\n\n.PHONY: clean\nclean:\n\trm -f {binary}\n",
        srcs = sources.join(" "),
    )
}

fn xor_tests() -> Vec<TestCase> {
    vec![
        TestCase::new(["16", "1"]),
        TestCase::new(["32", "3"]),
        TestCase::new(["8", "5"]),
    ]
}

fn xor_ground_truth(binary: &str, sources: &[&str]) -> BTreeMap<ExecutionModel, (String, Body)> {
    let mut gt = BTreeMap::new();
    gt.insert(
        ExecutionModel::OmpOffload,
        ("Makefile".to_string(), gt_make_omp_offload(binary, sources)),
    );
    gt.insert(
        ExecutionModel::Kokkos,
        (
            "CMakeLists.txt".to_string(),
            gt_cmake_kokkos(binary, sources),
        ),
    );
    gt
}

// -- the three applications ---------------------------------------------------

/// nanoXOR: single source file (kernel + driver together).
pub fn nanoxor() -> Application {
    let mut repos = BTreeMap::new();
    repos.insert(
        ExecutionModel::Cuda,
        SourceRepo::new()
            .with_file("Makefile", cuda_makefile("nanoxor", &["src/main.cu"]))
            .with_file("src/main.cu", cuda_main("", CUDA_LAUNCH, true)),
    );
    repos.insert(
        ExecutionModel::OmpThreads,
        SourceRepo::new()
            .with_file("Makefile", omp_makefile("nanoxor", &["src/main.cpp"]))
            .with_file(
                "src/main.cpp",
                omp_main("", "cellsXOR(grid_in, grid_out, N);", true),
            ),
    );
    let tests = xor_tests();
    Application {
        name: "nanoXOR".into(),
        binary: "nanoxor".into(),
        repos: share(repos),
        tests,
        cli_spec: CLI_SPEC.to_string(),
        build_spec: BUILD_SPEC.to_string(),
        ground_truth_build: xor_ground_truth("nanoxor", &["src/main.cpp"]),
        public_ports_exist: false,
        gen_digest: None,
    }
}

/// microXORh: the kernel lives in a header included by main (compile-time
/// dependency).
pub fn microxorh() -> Application {
    let cuda_header = format!(
        "{CUDA_KERNEL}\nvoid runXOR(const int* d_in, int* d_out, size_t N) {{\n    dim3 block(16, 16);\n    dim3 grid((N + 15) / 16, (N + 15) / 16);\n    cellsXOR<<<grid, block>>>(d_in, d_out, N);\n}}\n"
    );
    let omp_header = format!(
        "{OMP_KERNEL}\nvoid runXOR(const int* in, int* out, size_t N) {{\n    cellsXOR(in, out, N);\n}}\n"
    );
    let mut repos = BTreeMap::new();
    repos.insert(
        ExecutionModel::Cuda,
        SourceRepo::new()
            .with_file("Makefile", cuda_makefile("microxorh", &["src/main.cu"]))
            .with_file("src/kernel.h", cuda_header)
            .with_file(
                "src/main.cu",
                cuda_main("#include \"kernel.h\"", "runXOR(d_in, d_out, N);", false),
            ),
    );
    repos.insert(
        ExecutionModel::OmpThreads,
        SourceRepo::new()
            .with_file("Makefile", omp_makefile("microxorh", &["src/main.cpp"]))
            .with_file("src/kernel.h", omp_header)
            .with_file(
                "src/main.cpp",
                omp_main(
                    "#include \"kernel.h\"",
                    "runXOR(grid_in, grid_out, N);",
                    false,
                ),
            ),
    );
    let tests = xor_tests();
    Application {
        name: "microXORh".into(),
        binary: "microxorh".into(),
        repos: share(repos),
        tests,
        cli_spec: CLI_SPEC.to_string(),
        build_spec: BUILD_SPEC.to_string(),
        ground_truth_build: xor_ground_truth("microxorh", &["src/main.cpp"]),
        public_ports_exist: false,
        gen_digest: None,
    }
}

/// microXOR: the kernel lives in its own source file (link-time dependency).
pub fn microxor() -> Application {
    let decl = "void runXOR(const int* in, int* out, size_t N);\n";
    let cuda_kernel_src = format!(
        "#include <cuda_runtime.h>\n#include \"kernel.h\"\n\n{CUDA_KERNEL}\nvoid runXOR(const int* in, int* out, size_t N) {{\n    dim3 block(16, 16);\n    dim3 grid((N + 15) / 16, (N + 15) / 16);\n    cellsXOR<<<grid, block>>>(in, out, N);\n}}\n"
    );
    let omp_kernel_src = format!(
        "#include <omp.h>\n#include \"kernel.h\"\n\n{}\nvoid runXOR(const int* in, int* out, size_t N) {{\n    cellsXORimpl(in, out, N);\n}}\n",
        OMP_KERNEL.replace("void cellsXOR(", "void cellsXORimpl(")
    );
    let mut repos = BTreeMap::new();
    repos.insert(
        ExecutionModel::Cuda,
        SourceRepo::new()
            .with_file(
                "Makefile",
                cuda_makefile("microxor", &["src/main.cu", "src/kernel.cu"]),
            )
            .with_file("src/kernel.h", decl)
            .with_file("src/kernel.cu", cuda_kernel_src)
            .with_file(
                "src/main.cu",
                cuda_main("#include \"kernel.h\"", "runXOR(d_in, d_out, N);", false),
            ),
    );
    repos.insert(
        ExecutionModel::OmpThreads,
        SourceRepo::new()
            .with_file(
                "Makefile",
                omp_makefile("microxor", &["src/main.cpp", "src/kernel.cpp"]),
            )
            .with_file("src/kernel.h", decl)
            .with_file("src/kernel.cpp", omp_kernel_src)
            .with_file(
                "src/main.cpp",
                omp_main(
                    "#include \"kernel.h\"",
                    "runXOR(grid_in, grid_out, N);",
                    false,
                ),
            ),
    );
    let tests = xor_tests();
    Application {
        name: "microXOR".into(),
        binary: "microxor".into(),
        repos: share(repos),
        tests,
        cli_spec: CLI_SPEC.to_string(),
        build_spec: BUILD_SPEC.to_string(),
        ground_truth_build: xor_ground_truth("microxor", &["src/main.cpp", "src/kernel.cpp"]),
        public_ports_exist: false,
        gen_digest: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_build::{build_repo, BuildRequest};
    use minihpc_runtime::{run, RunConfig};

    fn run_model(
        app: &Application,
        model: ExecutionModel,
        args: &[&str],
    ) -> minihpc_runtime::RunResult {
        let repo = app.repo(model).unwrap();
        let out = build_repo(repo, &BuildRequest::new(&*app.binary));
        assert!(
            out.succeeded(),
            "{} {model} build failed:\n{}",
            app.name,
            out.log.text()
        );
        run(
            &out.executable.unwrap(),
            RunConfig::with_args(args.iter().copied()),
        )
    }

    #[test]
    fn all_three_apps_agree_across_models() {
        for app in [nanoxor(), microxorh(), microxor()] {
            let cuda = run_model(&app, ExecutionModel::Cuda, &["16", "2"]);
            let omp = run_model(&app, ExecutionModel::OmpThreads, &["16", "2"]);
            assert!(cuda.error.is_none(), "{}: {:?}", app.name, cuda.error);
            assert!(omp.error.is_none(), "{}: {:?}", app.name, omp.error);
            assert_eq!(
                cuda.stdout, omp.stdout,
                "{} differs across models",
                app.name
            );
            assert!(
                cuda.telemetry.ran_on_device(),
                "{} CUDA on device",
                app.name
            );
            assert!(
                !omp.telemetry.ran_on_device(),
                "{} OpenMP threads stays on host",
                app.name
            );
        }
    }

    #[test]
    fn nonempty_grid_evolves() {
        let app = nanoxor();
        let r1 = run_model(&app, ExecutionModel::Cuda, &["16", "1"]);
        let r2 = run_model(&app, ExecutionModel::Cuda, &["16", "2"]);
        assert_ne!(r1.stdout, r2.stdout, "iterations must change the state");
        assert!(r1.stdout.contains("live "));
    }

    #[test]
    fn expected_output_accessible_via_registry() {
        let app = nanoxor();
        let out = app.expected_output(&TestCase::new(["8", "1"]));
        assert!(out.starts_with("grid 8 iterations 1\n"), "{out}");
    }
}
