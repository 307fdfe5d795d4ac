module kernelgpt

go 1.24
