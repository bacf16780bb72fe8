//! llm.c (reduced): CUDA implementation of neural-network pretraining
//! (paper Sec. 5.1 — "slightly reduced ... to focus on critical application
//! components"). The MiniHPC port keeps the shape of Karpathy's llm.c:
//! separate kernel files for matmul, softmax+loss, and the optimizer, a
//! training loop in main, and deterministic synthetic data — here a
//! two-layer MLP classifier whose loss must decrease monotonically.

use crate::{gt_cmake_kokkos, gt_make_omp_offload, share, Application, TestCase};
use minihpc_lang::model::ExecutionModel;
use minihpc_lang::repo::SourceRepo;
use std::collections::BTreeMap;

const HEADER: &str = r#"#define BATCH 8
#define DIM 8
#define HIDDEN 16
#define CLASSES 4

void fill_random(double* a, int n, long seed, double scale);
void make_dataset(double* x, int* y, long seed);

__global__ void matmul_forward(double* out, const double* in, const double* w, int B, int IN, int OUT);
__global__ void relu_forward(double* h, int n);
__global__ void softmax_ce(const double* logits, const int* targets, double* dlogits, double* losses, int B, int C);
__global__ void matmul_backward_w(double* dw, const double* dout, const double* in, int B, int IN, int OUT);
__global__ void matmul_backward_x(double* din, const double* dout, const double* w, int B, int IN, int OUT);
__global__ void relu_backward(double* dh, const double* h, int n);
__global__ void sgd_update(double* w, const double* dw, double lr, int n);
"#;

const INIT_CU: &str = r#"#include <cuda_runtime.h>
#include "llmc.h"

long mix(long state) {
    return state * 0x5851F42D4C957F2D + 0x14057B7EF767814F;
}

double unit(long state) {
    long y = state >> 12;
    return (double)(y % 2097152) / 2097152.0;
}

void fill_random(double* a, int n, long seed, double scale) {
    long s = seed;
    for (int i = 0; i < n; i++) {
        s = mix(s);
        a[i] = (unit(s) - 0.5) * 2.0 * scale;
    }
}

void make_dataset(double* x, int* y, long seed) {
    fill_random(x, BATCH * DIM, seed, 1.0);
    for (int b = 0; b < BATCH; b++) {
        y[b] = b % CLASSES;
    }
}
"#;

const MATMUL_CU: &str = r#"#include <cuda_runtime.h>
#include "llmc.h"

__global__ void matmul_forward(double* out, const double* in, const double* w, int B, int IN, int OUT) {
    int idx = blockIdx.x * blockDim.x + threadIdx.x;
    if (idx < B * OUT) {
        int b = idx / OUT;
        int o = idx % OUT;
        double acc = 0.0;
        for (int i = 0; i < IN; i++) {
            acc += in[b * IN + i] * w[o * IN + i];
        }
        out[idx] = acc;
    }
}

__global__ void relu_forward(double* h, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        if (h[i] < 0.0) {
            h[i] = 0.0;
        }
    }
}

__global__ void matmul_backward_w(double* dw, const double* dout, const double* in, int B, int IN, int OUT) {
    int idx = blockIdx.x * blockDim.x + threadIdx.x;
    if (idx < OUT * IN) {
        int o = idx / IN;
        int i = idx % IN;
        double acc = 0.0;
        for (int b = 0; b < B; b++) {
            acc += dout[b * OUT + o] * in[b * IN + i];
        }
        dw[idx] = acc;
    }
}

__global__ void matmul_backward_x(double* din, const double* dout, const double* w, int B, int IN, int OUT) {
    int idx = blockIdx.x * blockDim.x + threadIdx.x;
    if (idx < B * IN) {
        int b = idx / IN;
        int i = idx % IN;
        double acc = 0.0;
        for (int o = 0; o < OUT; o++) {
            acc += dout[b * OUT + o] * w[o * IN + i];
        }
        din[idx] = acc;
    }
}

__global__ void relu_backward(double* dh, const double* h, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        if (h[i] <= 0.0) {
            dh[i] = 0.0;
        }
    }
}
"#;

const SOFTMAX_CU: &str = r#"#include <cuda_runtime.h>
#include <math.h>
#include "llmc.h"

__global__ void softmax_ce(const double* logits, const int* targets, double* dlogits, double* losses, int B, int C) {
    int b = blockIdx.x * blockDim.x + threadIdx.x;
    if (b < B) {
        double maxv = logits[b * C];
        for (int c = 1; c < C; c++) {
            if (logits[b * C + c] > maxv) {
                maxv = logits[b * C + c];
            }
        }
        double sum = 0.0;
        for (int c = 0; c < C; c++) {
            sum += exp(logits[b * C + c] - maxv);
        }
        int target = targets[b];
        for (int c = 0; c < C; c++) {
            double p = exp(logits[b * C + c] - maxv) / sum;
            double grad = p;
            if (c == target) {
                grad = p - 1.0;
                losses[b] = 0.0 - log(p);
            }
            dlogits[b * C + c] = grad / B;
        }
    }
}
"#;

const UPDATE_CU: &str = r#"#include <cuda_runtime.h>
#include "llmc.h"

__global__ void sgd_update(double* w, const double* dw, double lr, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        w[i] = w[i] - lr * dw[i];
    }
}
"#;

const MAIN_CU: &str = r#"#include <cuda_runtime.h>
#include <stdio.h>
#include <stdlib.h>
#include "llmc.h"

int main(int argc, char** argv) {
    int steps = 10;
    long seed = 1337;
    if (argc > 1) steps = atoi(argv[1]);
    if (argc > 2) seed = atol(argv[2]);
    printf("llm.c mini trainer: batch %d dim %d hidden %d classes %d\n", BATCH, DIM, HIDDEN, CLASSES);

    double* h_x = (double*)malloc(BATCH * DIM * sizeof(double));
    int* h_y = (int*)malloc(BATCH * sizeof(int));
    double* h_w1 = (double*)malloc(HIDDEN * DIM * sizeof(double));
    double* h_w2 = (double*)malloc(CLASSES * HIDDEN * sizeof(double));
    make_dataset(h_x, h_y, seed);
    fill_random(h_w1, HIDDEN * DIM, seed + 1, 0.5);
    fill_random(h_w2, CLASSES * HIDDEN, seed + 2, 0.5);

    double* x;
    int* y;
    double* w1;
    double* w2;
    double* h;
    double* hpre;
    double* logits;
    double* dlogits;
    double* losses;
    double* dw2;
    double* dh;
    double* dw1;
    cudaMalloc(&x, BATCH * DIM * sizeof(double));
    cudaMalloc(&y, BATCH * sizeof(int));
    cudaMalloc(&w1, HIDDEN * DIM * sizeof(double));
    cudaMalloc(&w2, CLASSES * HIDDEN * sizeof(double));
    cudaMalloc(&h, BATCH * HIDDEN * sizeof(double));
    cudaMalloc(&hpre, BATCH * HIDDEN * sizeof(double));
    cudaMalloc(&logits, BATCH * CLASSES * sizeof(double));
    cudaMalloc(&dlogits, BATCH * CLASSES * sizeof(double));
    cudaMalloc(&losses, BATCH * sizeof(double));
    cudaMalloc(&dw2, CLASSES * HIDDEN * sizeof(double));
    cudaMalloc(&dh, BATCH * HIDDEN * sizeof(double));
    cudaMalloc(&dw1, HIDDEN * DIM * sizeof(double));
    cudaMemcpy(x, h_x, BATCH * DIM * sizeof(double), cudaMemcpyHostToDevice);
    cudaMemcpy(y, h_y, BATCH * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(w1, h_w1, HIDDEN * DIM * sizeof(double), cudaMemcpyHostToDevice);
    cudaMemcpy(w2, h_w2, CLASSES * HIDDEN * sizeof(double), cudaMemcpyHostToDevice);

    double* h_losses = (double*)malloc(BATCH * sizeof(double));
    double lr = 0.5;
    double final_loss = 0.0;
    for (int step = 0; step < steps; step++) {
        matmul_forward<<<1, BATCH * HIDDEN>>>(hpre, x, w1, BATCH, DIM, HIDDEN);
        cudaMemcpy(h, hpre, BATCH * HIDDEN * sizeof(double), cudaMemcpyDeviceToDevice);
        relu_forward<<<1, BATCH * HIDDEN>>>(h, BATCH * HIDDEN);
        matmul_forward<<<1, BATCH * CLASSES>>>(logits, h, w2, BATCH, HIDDEN, CLASSES);
        softmax_ce<<<1, BATCH>>>(logits, y, dlogits, losses, BATCH, CLASSES);
        cudaDeviceSynchronize();
        cudaMemcpy(h_losses, losses, BATCH * sizeof(double), cudaMemcpyDeviceToHost);
        double mean = 0.0;
        for (int b = 0; b < BATCH; b++) {
            mean += h_losses[b];
        }
        mean = mean / BATCH;
        printf("step %d loss %.6f\n", step, mean);
        final_loss = mean;

        matmul_backward_w<<<1, CLASSES * HIDDEN>>>(dw2, dlogits, h, BATCH, HIDDEN, CLASSES);
        matmul_backward_x<<<1, BATCH * HIDDEN>>>(dh, dlogits, w2, BATCH, HIDDEN, CLASSES);
        relu_backward<<<1, BATCH * HIDDEN>>>(dh, hpre, BATCH * HIDDEN);
        matmul_backward_w<<<1, HIDDEN * DIM>>>(dw1, dh, x, BATCH, DIM, HIDDEN);
        sgd_update<<<1, CLASSES * HIDDEN>>>(w2, dw2, lr, CLASSES * HIDDEN);
        sgd_update<<<1, HIDDEN * DIM>>>(w1, dw1, lr, HIDDEN * DIM);
        cudaDeviceSynchronize();
    }
    printf("final loss %.6f\n", final_loss);

    free(h_x);
    free(h_y);
    free(h_w1);
    free(h_w2);
    free(h_losses);
    return 0;
}
"#;

const MAKEFILE: &str = "NVCC = nvcc\nNVCCFLAGS = -O2 -arch=sm_80\nSRCS = src/main.cu src/init.cu src/matmul.cu src/softmax.cu src/update.cu\n\nllmc: $(SRCS)\n\t$(NVCC) $(NVCCFLAGS) -o llmc $(SRCS)\n\n.PHONY: clean\nclean:\n\trm -f llmc\n";

pub fn llmc() -> Application {
    let mut repos = BTreeMap::new();
    repos.insert(
        ExecutionModel::Cuda,
        SourceRepo::new()
            .with_file("Makefile", MAKEFILE)
            .with_file("src/llmc.h", HEADER)
            .with_file("src/main.cu", MAIN_CU)
            .with_file("src/init.cu", INIT_CU)
            .with_file("src/matmul.cu", MATMUL_CU)
            .with_file("src/softmax.cu", SOFTMAX_CU)
            .with_file("src/update.cu", UPDATE_CU),
    );
    let sources = [
        "src/main.cpp",
        "src/init.cpp",
        "src/matmul.cpp",
        "src/softmax.cpp",
        "src/update.cpp",
    ];
    let mut gt = BTreeMap::new();
    gt.insert(
        ExecutionModel::OmpOffload,
        (
            "Makefile".to_string(),
            gt_make_omp_offload("llmc", &sources),
        ),
    );
    gt.insert(
        ExecutionModel::Kokkos,
        (
            "CMakeLists.txt".to_string(),
            gt_cmake_kokkos("llmc", &sources),
        ),
    );
    let tests = vec![
        TestCase::new(["5", "1337"]),
        TestCase::new(["10", "1337"]),
        TestCase::new(["8", "99"]),
    ];
    Application {
        name: "llm.c".into(),
        binary: "llmc".into(),
        repos: share(repos),
        tests,
        cli_spec: "The program must be invoked as `llmc [steps] [seed]` (defaults 10 1337) \
                   and print one `step <i> loss <v>` line per training step followed by \
                   `final loss <v>`, six decimal places."
            .to_string(),
        build_spec: "The build must produce an executable named `llmc` in the repository \
                     root, compiling the five sources under src/."
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

    fn train(args: &[&str]) -> minihpc_runtime::RunResult {
        let app = llmc();
        let out = build_repo(
            app.repo(ExecutionModel::Cuda).unwrap(),
            &BuildRequest::new(&*app.binary),
        );
        assert!(out.succeeded(), "{}", out.log.text());
        run(
            &out.executable.unwrap(),
            RunConfig::with_args(args.iter().copied()),
        )
    }

    #[test]
    fn loss_decreases_monotonically() {
        let r = train(&["8", "1337"]);
        assert!(r.error.is_none(), "{:?}", r.error);
        let losses: Vec<f64> = r
            .stdout
            .lines()
            .filter(|l| l.starts_with("step "))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(losses.len(), 8);
        assert!(
            losses.windows(2).all(|w| w[1] < w[0]),
            "loss not monotonically decreasing: {losses:?}"
        );
        assert!(r.telemetry.ran_on_device());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = train(&["5", "42"]);
        let b = train(&["5", "42"]);
        let c = train(&["5", "43"]);
        assert_eq!(a.stdout, b.stdout);
        assert_ne!(a.stdout, c.stdout);
    }
}
