//! SimpleMOC-kernel: proxy for SimpleMOC neutron-flux attenuation (paper
//! Sec. 5.1). CUDA-only upstream, six files, and — the distinguishing
//! difficulty — a dependency on the external cuRAND library that has no
//! direct OpenMP/Kokkos equivalent, forcing translations to synthesise a
//! portable RNG.

use crate::{gt_cmake_kokkos, gt_make_omp_offload, share, Application, TestCase};
use minihpc_lang::model::ExecutionModel;
use minihpc_lang::repo::SourceRepo;
use std::collections::BTreeMap;

const HEADER: &str = r#"typedef struct {
    int segments;
    int egroups;
    long seed;
} Input;

void read_cli(int argc, char** argv, Input* input);
void report(float* flux, Input* input);
__global__ void init_rng(curandState* states, int n, long seed);
__global__ void attenuate_all(curandState* states, float* flux, int S, int G);
"#;

const MAIN_CU: &str = r#"#include <cuda_runtime.h>
#include <curand_kernel.h>
#include <stdio.h>
#include <stdlib.h>
#include "simplemoc.h"

int main(int argc, char** argv) {
    Input* input = (Input*)malloc(sizeof(Input));
    read_cli(argc, argv, input);
    printf("SimpleMOC-kernel: segments %d egroups %d\n", input->segments, input->egroups);
    int S = input->segments;
    int G = input->egroups;
    curandState* states;
    float* flux;
    cudaMalloc(&states, S * sizeof(curandState));
    cudaMalloc(&flux, S * G * sizeof(float));
    int threads = 64;
    int blocks = (S + threads - 1) / threads;
    init_rng<<<blocks, threads>>>(states, S, input->seed);
    cudaDeviceSynchronize();
    attenuate_all<<<blocks, threads>>>(states, flux, S, G);
    cudaDeviceSynchronize();
    float* h_flux = (float*)malloc(S * G * sizeof(float));
    cudaMemcpy(h_flux, flux, S * G * sizeof(float), cudaMemcpyDeviceToHost);
    report(h_flux, input);
    cudaFree(states);
    cudaFree(flux);
    free(h_flux);
    free(input);
    return 0;
}
"#;

const INIT_CU: &str = r#"#include <cuda_runtime.h>
#include <curand_kernel.h>
#include "simplemoc.h"

__global__ void init_rng(curandState* states, int n, long seed) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        curand_init(seed, i, 0, &states[i]);
    }
}
"#;

const KERNEL_CU: &str = r#"#include <cuda_runtime.h>
#include <curand_kernel.h>
#include <math.h>
#include "simplemoc.h"

__device__ float attenuate_segment(curandState* state) {
    float sigT = curand_uniform(state) * 2.0 + 0.1;
    float length = curand_uniform(state) * 0.5;
    float q0 = curand_uniform(state);
    float tau = sigT * length;
    return (q0 / sigT) * (1.0 - expf(-tau));
}

__global__ void attenuate_all(curandState* states, float* flux, int S, int G) {
    int s = blockIdx.x * blockDim.x + threadIdx.x;
    if (s < S) {
        for (int g = 0; g < G; g++) {
            flux[s * G + g] = attenuate_segment(&states[s]);
        }
    }
}
"#;

const IO_CU: &str = r#"#include <stdio.h>
#include <stdlib.h>
#include "simplemoc.h"

void read_cli(int argc, char** argv, Input* input) {
    input->segments = 1024;
    input->egroups = 16;
    input->seed = 42;
    if (argc > 1) input->segments = atoi(argv[1]);
    if (argc > 2) input->egroups = atoi(argv[2]);
    if (argc > 3) input->seed = atol(argv[3]);
}

void report(float* flux, Input* input) {
    int S = input->segments;
    int G = input->egroups;
    double total = 0.0;
    double maxv = 0.0;
    for (int k = 0; k < S * G; k++) {
        total += flux[k];
        if (flux[k] > maxv) maxv = flux[k];
    }
    printf("mean flux %.6f\n", total / (S * G));
    printf("max flux %.6f\n", maxv);
}
"#;

const README: &str = "# SimpleMOC-kernel\n\nA proxy application for the attenuation \
of neutron flux along characteristic tracks (Method of Characteristics), after \
Tramm et al. Only a CUDA implementation is available; the kernel depends on the \
cuRAND device library for per-segment sampling.\n";

const MAKEFILE: &str = "NVCC = nvcc\nNVCCFLAGS = -O2 -arch=sm_80\nSRCS = src/main.cu src/kernel.cu src/init.cu src/io.cu\n\nsimplemoc: $(SRCS)\n\t$(NVCC) $(NVCCFLAGS) -o simplemoc $(SRCS)\n\n.PHONY: clean\nclean:\n\trm -f simplemoc\n";

pub fn simplemoc_kernel() -> Application {
    let mut repos = BTreeMap::new();
    repos.insert(
        ExecutionModel::Cuda,
        SourceRepo::new()
            .with_file("Makefile", MAKEFILE)
            .with_file("README.md", README)
            .with_file("src/simplemoc.h", HEADER)
            .with_file("src/main.cu", MAIN_CU)
            .with_file("src/kernel.cu", KERNEL_CU)
            .with_file("src/init.cu", INIT_CU)
            .with_file("src/io.cu", IO_CU),
    );
    let sources = [
        "src/main.cpp",
        "src/kernel.cpp",
        "src/init.cpp",
        "src/io.cpp",
    ];
    let mut gt = BTreeMap::new();
    gt.insert(
        ExecutionModel::OmpOffload,
        (
            "Makefile".to_string(),
            gt_make_omp_offload("simplemoc", &sources),
        ),
    );
    gt.insert(
        ExecutionModel::Kokkos,
        (
            "CMakeLists.txt".to_string(),
            gt_cmake_kokkos("simplemoc", &sources),
        ),
    );
    let tests = vec![
        TestCase::new(["512", "8", "42"]),
        TestCase::new(["1024", "16", "7"]),
        TestCase::new(["256", "32", "1234"]),
    ];
    Application {
        name: "SimpleMOC-kernel".into(),
        binary: "simplemoc".into(),
        repos: share(repos),
        tests,
        cli_spec: "The program must be invoked as `simplemoc <segments> <egroups> <seed>` \
                   (all optional, defaults 1024 16 42) and print a header line followed by \
                   `mean flux <v>` and `max flux <v>` with six decimal places."
            .to_string(),
        build_spec: "The build must produce an executable named `simplemoc` in the \
                     repository root. The cuRAND dependency must be replaced with a \
                     deterministic portable RNG when translating away from CUDA."
            .to_string(),
        ground_truth_build: gt,
        public_ports_exist: false,
        gen_digest: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_build::{build_repo, BuildRequest};
    use minihpc_runtime::{run, RunConfig};

    #[test]
    fn builds_and_runs_deterministically() {
        let app = simplemoc_kernel();
        let repo = app.repo(ExecutionModel::Cuda).unwrap();
        let out = build_repo(repo, &BuildRequest::new(&*app.binary));
        assert!(out.succeeded(), "{}", out.log.text());
        let exe = out.executable.unwrap();
        let r1 = run(&exe, RunConfig::with_args(["128", "4", "42"]));
        assert!(r1.error.is_none(), "{:?}", r1.error);
        assert!(r1.stdout.contains("mean flux "), "{}", r1.stdout);
        assert!(r1.telemetry.ran_on_device());
        let r2 = run(&exe, RunConfig::with_args(["128", "4", "42"]));
        assert_eq!(r1.stdout, r2.stdout);
        let r3 = run(&exe, RunConfig::with_args(["128", "4", "43"]));
        assert_ne!(r1.stdout, r3.stdout, "seed must matter");
    }

    #[test]
    fn mean_flux_in_physical_range() {
        let app = simplemoc_kernel();
        let out = app.expected_output(&TestCase::new(["256", "8", "42"]));
        let mean: f64 = out
            .lines()
            .find(|l| l.starts_with("mean flux"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(mean > 0.0 && mean < 1.0, "mean {mean} out of range");
    }
}
