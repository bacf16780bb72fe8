//! Property tests on the simulated runtime: a CUDA kernel matches its
//! closed form for any size and coefficient, and its disjoint writes are
//! race-free.

use minihpc_build::{build_repo, BuildRequest};
use minihpc_lang::repo::SourceRepo;
use minihpc_runtime::{run, RunConfig};
use proptest::prelude::*;

fn saxpy_repo() -> SourceRepo {
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

__global__ void saxpy(const double* x, double* y, double a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

int main(int argc, char** argv) {
    int n = atoi(argv[1]);
    double a = atof(argv[2]);
    double* hx = (double*)malloc(n * sizeof(double));
    double* hy = (double*)malloc(n * sizeof(double));
    for (int i = 0; i < n; i++) {
        hx[i] = i * 0.5;
        hy[i] = i;
    }
    double* dx;
    double* dy;
    cudaMalloc(&dx, n * sizeof(double));
    cudaMalloc(&dy, n * sizeof(double));
    cudaMemcpy(dx, hx, n * sizeof(double), cudaMemcpyHostToDevice);
    cudaMemcpy(dy, hy, n * sizeof(double), cudaMemcpyHostToDevice);
    saxpy<<<(n + 63) / 64, 64>>>(dx, dy, a, n);
    cudaDeviceSynchronize();
    cudaMemcpy(hy, dy, n * sizeof(double), cudaMemcpyDeviceToHost);
    double sum = 0.0;
    for (int i = 0; i < n; i++) sum += hy[i];
    printf("%.4f\n", sum);
    return 0;
}
"#,
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// saxpy through the full pipeline matches the closed form, for any
    /// size/coefficient.
    #[test]
    fn saxpy_matches_closed_form(n in 1i64..300, a_times_4 in -20i64..20) {
        let a = a_times_4 as f64 / 4.0;
        let out = build_repo(&saxpy_repo(), &BuildRequest::new("app"));
        let exe = out.executable.expect("builds");
        // sum_i (a * 0.5 i + i) = (0.5 a + 1) * n(n-1)/2
        let expected = (0.5 * a + 1.0) * (n * (n - 1)) as f64 / 2.0;
        let args = [n.to_string(), format!("{a}")];

        let seq = run(&exe, RunConfig::with_args(args.iter().cloned()));
        prop_assert!(seq.error.is_none(), "{:?}", seq.error);
        let got: f64 = seq.stdout.trim().parse().unwrap();
        prop_assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");

        let mut cfg = RunConfig::with_args(args.iter().cloned());
        cfg.detect_races = true;
        let detected = run(&exe, cfg);
        prop_assert!(detected.races.is_empty(), "disjoint writes are race-free");
    }
}
