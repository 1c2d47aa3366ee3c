module cubetree/bench

go 1.22

require cubetree v0.0.0

replace cubetree => ../
